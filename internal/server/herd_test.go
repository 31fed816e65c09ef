package server_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
)

// TestPlanCacheCrossRankHerd: concurrent cold misses for the same query
// under different rankings must run ONE compile (the key has no ranking).
func TestPlanCacheCrossRankHerd(t *testing.T) {
	c := server.NewPlanCache(8)
	db := tinyDB(t)
	var prepares atomic.Int64
	release := make(chan struct{})
	prepare := func() (qjoin.Plan, error) {
		prepares.Add(1)
		<-release
		q, _ := qjoin.ParseQuery("R(x,y),S(y,z)")
		return qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
	}
	ranks := []string{"sum(x,z)", "min(x)", "max(z)", "lex(x,z)"}
	var wg sync.WaitGroup
	plans := make([]qjoin.Plan, len(ranks))
	started := make(chan struct{}, len(ranks))
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, rs string) {
			defer wg.Done()
			started <- struct{}{}
			f, _ := qjoin.ParseRanking(rs)
			p, _, err := c.Get(context.Background(), "d", 1, "R(x,y),S(y,z)", 1, nil, prepare)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5}); err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i, r)
	}
	for range ranks {
		<-started
	}
	close(release)
	wg.Wait()
	if n := prepares.Load(); n > 1 {
		t.Fatalf("prepares = %d, want 1 (cross-ranking herd not coalesced)", n)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatalf("plan %d not shared", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1 (one per plan)", c.Len())
	}
}
