package server_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// TestQueryPanicIsA500 drives engine work into a panic through the HTTP
// surface: the cross product of 130 two-row relations has 2^130 answers,
// past the 128-bit counters, so both a quantile run and the lazily built
// count panic with a counting overflow. The server must answer 500, count
// the panic, and keep serving.
func TestQueryPanicIsA500(t *testing.T) {
	for _, op := range []string{"quantile", "count"} {
		t.Run(op, func(t *testing.T) {
			srv := server.New(server.Config{Parallelism: 1})
			h := srv.Handler()
			var load server.LoadRequest
			atoms := make([]string, 130)
			for i := range atoms {
				name := fmt.Sprintf("R%d", i)
				atoms[i] = fmt.Sprintf("%s(a%d)", name, i)
				load.Relations = append(load.Relations, server.RelationData{Name: name, Arity: 1, Rows: [][]int64{{0}, {1}}})
			}
			decodeAs(t, do(t, h, "PUT", "/datasets/wide", load), 200, nil)

			w := do(t, h, "POST", "/query", server.QueryRequest{
				Dataset: "wide", Query: strings.Join(atoms, ","), Rank: "sum(a0)", Op: op, Phi: 0.5,
			})
			var er server.ErrorResponse
			decodeAs(t, w, 500, &er)
			if !strings.Contains(er.Error, "panic") {
				t.Fatalf("500 body does not name the panic: %q", er.Error)
			}
			if w := do(t, h, "GET", "/healthz", nil); w.Code != 200 {
				t.Fatalf("healthz after panic = %d", w.Code)
			}
			st := srv.StatsSnapshot()
			if st.Metrics.Panics != 1 || st.Cache.Panics != 0 {
				t.Fatalf("panics counted: query %d, prepare %d; want 1 and 0", st.Metrics.Panics, st.Cache.Panics)
			}
			if body := do(t, h, "GET", "/metrics", nil).Body.String(); !strings.Contains(body, `"panics":1`) {
				t.Fatalf("/metrics does not report the panic: %s", body)
			}
		})
	}
}

// TestPreparePanicClosesFlight checks the plan cache's compile goroutine: a
// panicking prepare must fail every waiter of its flight with an error (not
// leave them blocked), be counted, and leave the key compilable again.
func TestPreparePanicClosesFlight(t *testing.T) {
	c := server.NewPlanCache(4)
	release := make(chan struct{})
	prepare := func() (qjoin.Plan, error) {
		<-release
		panic("boom")
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Get(ctx, "d", 1, "R(x)", 1, nil, prepare)
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("waiter %d: err = %v, want the recovered panic", i, err)
		}
	}
	if got := c.Stats().Panics; got < 1 {
		t.Fatalf("cache panics = %d", got)
	}
	db := qjoin.NewDB().MustAdd("R", 1, [][]int64{{1}})
	q, err := qjoin.ParseQuery("R(x)")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := c.Get(ctx, "d", 1, "R(x)", 1, nil, func() (qjoin.Plan, error) { return qjoin.Prepare(q, db) })
	if err != nil || p.Count().Int64() != 1 {
		t.Fatalf("recompile after panic: %v", err)
	}
}
