package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/server"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// The serve-sharded traffic: an open loop offering serveRate requests per
// second on serveConns connections. One slot in deltaEvery (every 4s) is a
// delta; every 6th slot is an exact quantile (rankings in turn), except in
// the quietSlots after a delta; every 25th is a count; the rest are approx
// or auto quantiles by a seeded coin. That gives ≥100 exact samples per 20s
// run, enough for a p90.
//
// A delta keeps a connection busy for ~0.7s. Exact quantiles due then would
// queue behind it, and the tails of both tiers would then swing with how
// the few deltas of a run happened to line up with exact quantiles; the
// quiet window keeps exact reads and writes apart while approx and auto
// requests keep arriving during every write. The server is then busy about
// 40% of the time: at ~65% a short stall of the host once grew a backlog
// that took the rest of the run to drain.
const (
	serveRate  = 50
	serveConns = 2
	deltaEvery = 200
	quietSlots = 50
)

var serveRanks = []string{"sum(l2,l3)", "max(l2,l3)", "min(l2)"}

const (
	opExact = iota
	opApprox
	opAuto
	opCount
	opDelta
)

var opNames = []string{"exact", "approx", "auto", "count", "delta"}

type serveOp struct {
	kind  int
	rank  int
	phi   float64
	delta *qjoin.Delta
	body  []byte
}

type serveResult struct {
	status     int
	query      server.QueryResponse
	delta      server.DeltaResponse
	sent, recv time.Time
	err        error
}

// serveSys is one running server: durable store, handler, loopback listener.
type serveSys struct {
	store  *server.Store
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServer serves on a loopback listener at the given Parallelism. With
// a non-empty dir it is durable: it opens the store in dir and recovers what
// the store holds.
func startServer(dir string, parallelism int) (*serveSys, error) {
	var st *server.Store
	var recs []server.Recovered
	if dir != "" {
		var err error
		if st, err = server.NewStore(dir); err != nil {
			return nil, err
		}
		if recs, err = st.LoadAll(); err != nil {
			st.Close()
			return nil, err
		}
	}
	srv := server.New(server.Config{Parallelism: parallelism, Store: st})
	for _, rec := range recs {
		srv.RestoreDataset(rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	s := &serveSys{
		store: st,
		hs:    &http.Server{Handler: srv.Handler()},
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// loadBody is the PUT /datasets/{name} body carrying db.
func loadBody(db *qjoin.DB, shards int) ([]byte, error) {
	load := server.LoadRequest{Shards: shards}
	for _, name := range db.Relations() {
		rel := db.Unwrap().Get(name)
		rows := make([][]int64, rel.Len())
		for i := range rows {
			rows[i] = rel.RowValues(i)
		}
		load.Relations = append(load.Relations, server.RelationData{Name: name, Arity: rel.Arity(), Rows: rows})
	}
	return json.Marshal(load)
}

// close stops the server, waits for its serve loop and its connections to
// end, and closes the store. Waiting matters for plan_heap_mb: a connection
// goroutine still unwinding keeps the torn-down server reachable.
func (s *serveSys) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// do sends one request and decodes a 200 body into out.
func (s *serveSys) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (s *serveSys) query(req server.QueryRequest) (server.QueryResponse, int, error) {
	var out server.QueryResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	status, err := s.do("POST", "/query", body, &out)
	return out, status, err
}

func (s *serveSys) stats() (server.StatsResponse, error) {
	var out server.StatsResponse
	_, err := s.do("GET", "/stats", nil, &out)
	return out, err
}

func deltaBody(d *qjoin.Delta) ([]byte, error) {
	var req server.DeltaRequest
	d.Ops(func(rel string, row []qjoin.Value, del bool) {
		op := "insert"
		if del {
			op = "delete"
		}
		req.Ops = append(req.Ops, server.DeltaOp{Op: op, Rel: rel, Row: append([]int64(nil), row...)})
	})
	return json.Marshal(req)
}

// runServeSharded is the serve-sharded workload: the social-network join
// (n=8000, 800 events; 24k tuples, |Q(D)| ≈ 805k) loaded with shards: 2 into
// a durable server at Parallelism 2, under the open-loop mix above.
func runServeSharded(c config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	sn := workload.NewSocialNetwork(rng, 8000, 800, 100)
	db := qjoin.WrapDB(sn.DB)
	tuples := db.Size()
	qstr := qjoin.FormatQuery(sn.Q)
	fs := make([]*qjoin.Ranking, len(serveRanks))
	for i, s := range serveRanks {
		f, err := qjoin.ParseRanking(s)
		if err != nil {
			return err
		}
		fs[i] = f
	}
	body, err := loadBody(db, 2)
	if err != nil {
		return err
	}
	deltas, err := newDeltaSource(rng, db, 2, func(rng *rand.Rand, rel string) []qjoin.Value {
		// A fresh user on an existing event, so the row joins.
		return []qjoin.Value{1<<30 + rng.Int63n(1<<20), rng.Int63n(800), rng.Int63n(100)}
	})
	if err != nil {
		return err
	}
	ops := serveSchedule(rng, c.seconds, deltas, qstr, c.rec != nil)
	if len(ops) == 0 {
		return fmt.Errorf("empty schedule")
	}
	rec := c.rec
	run := rec.Begin("run", 0, 0)
	defer rec.End(run)

	var sys *serveSys
	var dir string
	var gen0 uint64
	_, err = measureSetup(c, r, run, func(span int) (func(), error) {
		d, err := os.MkdirTemp(c.dir, "serve-")
		if err != nil {
			return nil, err
		}
		var s *serveSys
		if _, err := timed(rec, "server.start", span, func() (err error) { s, err = startServer(d, 2); return err }); err != nil {
			os.RemoveAll(d)
			return nil, err
		}
		down := func() {
			s.close()
			os.RemoveAll(d)
			sys = nil
			// server.New publishes the newest server through a process-wide
			// expvar; an empty one takes its place, so the torn-down server
			// is garbage before the next rep measures the base heap.
			server.New(server.Config{})
		}
		var lr server.LoadResponse
		if _, err := timed(rec, "server.load", span, func() error {
			_, err := s.do("PUT", "/datasets/sn", body, &lr)
			return err
		}); err != nil {
			down()
			return nil, err
		}
		// Warm what serving needs: the count plan, and per ranking its plan
		// and sketch (the cold ModeApprox request builds both).
		if _, err := timed(rec, "server.warm", span, func() error {
			_, _, err := s.query(server.QueryRequest{Dataset: "sn", Query: qstr, Op: "count"})
			return err
		}); err != nil {
			down()
			return nil, err
		}
		for _, rank := range serveRanks {
			if _, err := timed(rec, "server.warm", span, func() error {
				_, _, err := s.query(server.QueryRequest{Dataset: "sn", Query: qstr, Rank: rank, Op: "quantile", Phi: 0.5, Mode: "approx", Eps: approxEps})
				return err
			}); err != nil {
				down()
				return nil, err
			}
		}
		sys, dir, gen0 = s, d, lr.Generation
		return down, nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.infof("tuples=%d shards=2 rate=%d/s conns=%d ops=%d", tuples, serveRate, serveConns, len(ops))

	before, err := sys.stats()
	if err != nil {
		sys.close()
		return err
	}
	phase := rec.Begin("phase.serve", run, 0)
	due := make([]time.Duration, len(ops))
	for i := range ops {
		due[i] = time.Duration(i) * time.Second / serveRate
	}
	res := make([]serveResult, len(ops))
	lat, late := openLoop(rec, phase, time.Now(), due, serveConns, func(i int, dueAt time.Time) {
		op := &ops[i]
		out := &res[i]
		out.sent = time.Now()
		if op.kind == opDelta {
			out.status, out.err = sys.do("POST", "/datasets/sn/delta", op.body, &out.delta)
		} else {
			out.status, out.err = sys.do("POST", "/query", op.body, &out.query)
		}
		out.recv = time.Now()
		if rec != nil {
			id := rec.Add("http.request", phase, int64(i+1), dueAt, out.recv)
			rec.Add("bench.queue", id, int64(i+1), dueAt, out.sent)
			if op.kind == opDelta {
				rec.Add("server.delta", id, int64(i+1), out.sent, out.recv)
			} else if out.err == nil {
				el := time.Duration(out.query.ElapsedUS) * time.Microsecond
				rec.Add("server.handler", id, int64(i+1), out.recv.Add(-el), out.recv)
			}
		}
	})
	rec.End(phase)
	after, err := sys.stats()
	if err != nil {
		sys.close()
		return err
	}
	if err := sys.close(); err != nil {
		return err
	}

	// Per-op accounting, timed from the due time.
	byKind := make([][]time.Duration, len(opNames))
	var overhead []float64
	var migrated, touched []float64
	rejected, auto, fallback := 0, 0, 0
	for i, op := range ops {
		out := res[i]
		if !r.op(out.err) {
			if out.status != 0 {
				rejected++
			}
			continue
		}
		byKind[op.kind] = append(byKind[op.kind], lat[i])
		switch op.kind {
		case opDelta:
			migrated = append(migrated, float64(out.delta.PlansMigrated))
			touched = append(touched, float64(len(out.delta.ShardsTouched)))
		default:
			if rec != nil {
				overhead = append(overhead, ms(out.recv.Sub(out.sent))-float64(out.query.ElapsedUS)/1000)
			}
			if op.kind == opAuto {
				auto++
				if out.query.Source == qjoin.SourceExact {
					fallback++
				}
			}
		}
	}
	r.latencies("answer", byKind[opExact])
	r.throughput(len(byKind[opExact]), byKind[opExact])
	r.latencies("approx", append(byKind[opApprox], byKind[opAuto]...))
	r.latencies("update", byKind[opDelta])
	for k, name := range opNames {
		r.infof("%s: %d ok, p50 %.3f ms", name, len(byKind[k]), median(msAll(byKind[k])))
	}
	busy := 0.0
	for k := range opNames {
		for _, d := range byKind[k] {
			busy += d.Seconds()
		}
	}
	r.infof("offered %.0f req/s for %.1fs; connections busy %.0f%% of the time", float64(serveRate), due[len(due)-1].Seconds(), 100*busy/(serveConns*due[len(due)-1].Seconds()))

	want, err := checkServe(c, r, run, sn.Q, db, fs, ops, res, gen0)
	if err != nil {
		return err
	}

	// Cold start: a new server over the run's data directory until its
	// first successful /query.
	phase = rec.Begin("phase.restore", run, 0)
	var times []float64
	for i := 0; i < restores; i++ {
		collect(rec, phase)
		start := time.Now()
		s, err := startServer(dir, 2)
		if !r.op(err) {
			return err
		}
		resp, _, err := s.query(server.QueryRequest{Dataset: "sn", Query: qstr, Op: "count"})
		d := time.Since(start)
		rec.Add("server.restore", phase, 0, start, start.Add(d))
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if !r.op(err) {
			continue
		}
		times = append(times, ms(d))
		if resp.Count != want {
			r.mismatch("restored count", fmt.Errorf("count %s, before restart %s", resp.Count, want))
		}
	}
	rec.End(phase)
	r.e2e["restore_ms"] = median(times)

	if rec != nil {
		r.layer["bench.late_p90_ms"], _ = tail(msAll(late), 0.9)
		r.layer["server.overhead_ms"] = median(overhead)
		hits := after.Cache.Hits - before.Cache.Hits
		misses := after.Cache.Misses - before.Cache.Misses
		r.layer["server.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		r.layer["server.migrations_per_delta"] = sum(migrated) / float64(max(len(migrated), 1))
		r.layer["server.rejected"] = float64(rejected)
		r.layer["shard.touched"] = sum(touched) / float64(max(len(touched), 1))
		r.layer["sketch.fallback_ratio"] = float64(fallback) / float64(max(auto, 1))
		var applied []*qjoin.Delta
		for _, op := range ops {
			if op.kind == opDelta {
				applied = append(applied, op.delta)
			}
		}
		if err := serveLayers(c, r, run, sn.Q, db, fs, applied); err != nil {
			return err
		}
	}
	return nil
}

// restores is how many cold starts serve-sharded times after its loop. A
// cold start's time varies by ±15% within a run, so the median needs many
// samples to repeat from run to run.
const restores = 41

// serveSchedule lays out the request mix; see the constants above.
func serveSchedule(rng *rand.Rand, seconds float64, deltas *deltaSource, qstr string, timing bool) []serveOp {
	n := int(seconds * serveRate)
	ops := make([]serveOp, 0, n)
	for j := 0; j < n; j++ {
		op := serveOp{rank: rng.Intn(len(serveRanks)), phi: (float64(rng.Intn(64)) + 0.5) / 64}
		switch {
		case j%deltaEvery == deltaEvery/2:
			op.kind = opDelta
			op.delta = deltas.next([]string{"Share", "Attend"})
		case j%6 == 0 && (j+deltaEvery/2)%deltaEvery >= quietSlots:
			op.kind, op.rank = opExact, (j/6)%len(serveRanks)
		case j%25 == 3:
			op.kind = opCount
		case rng.Intn(2) == 0:
			op.kind = opApprox
		default:
			op.kind = opAuto
		}
		var err error
		if op.kind == opDelta {
			op.body, err = deltaBody(op.delta)
		} else {
			req := server.QueryRequest{Dataset: "sn", Query: qstr, Op: "quantile", Phi: op.phi, Timing: timing}
			switch op.kind {
			case opCount:
				req.Op, req.Phi = "count", 0
			case opApprox, opAuto:
				req.Mode, req.Eps = opNames[op.kind], approxEps
			}
			if op.kind != opCount {
				req.Rank = serveRanks[op.rank]
			}
			op.body, err = json.Marshal(req)
		}
		if err != nil {
			panic(err) // marshalling plain structs cannot fail
		}
		ops = append(ops, op)
	}
	return ops
}

// checkServe checks every successful query response against the reference
// of the generation it reports: the dataset rebuilt from the load and the
// deltas the server acknowledged up to that generation, compiled unsharded,
// all answers materialized and their weights sorted per ranking. It returns
// |Q(D)| after the last acknowledged delta, which a restart must reproduce.
func checkServe(c config, r *report, run int, q *qjoin.Query, db *qjoin.DB, fs []*qjoin.Ranking, ops []serveOp, res []serveResult, gen0 uint64) (string, error) {
	phase := c.rec.Begin("phase.check", run, 0)
	defer c.rec.End(phase)
	deltaAt := map[uint64]*qjoin.Delta{}
	byGen := map[uint64][]int{}
	var gens []uint64
	for i, op := range ops {
		if res[i].err != nil {
			continue
		}
		if op.kind == opDelta {
			deltaAt[res[i].delta.Generation] = op.delta
			continue
		}
		g := res[i].query.Generation
		if byGen[g] == nil {
			gens = append(gens, g)
		}
		byGen[g] = append(byGen[g], i)
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	cur, at := db, gen0
	advance := func(g uint64) error {
		for ; at < g; at++ {
			if d := deltaAt[at+1]; d != nil {
				next, err := cur.Apply(d)
				if err != nil {
					return fmt.Errorf("reference generation %d: %w", at+1, err)
				}
				cur = next
			}
		}
		return nil
	}
	for _, g := range gens {
		if err := advance(g); err != nil {
			return "", err
		}
		var refs []refWeights
		_, err := timed(c.rec, "engine.enumerate", phase, func() error {
			p, err := qjoin.Prepare(q, cur, qjoin.Options{Parallelism: 2})
			if err != nil {
				return err
			}
			refs, err = sortedWeights(p, fs)
			return err
		})
		if err != nil {
			return "", err
		}
		for _, i := range byGen[g] {
			op, out := ops[i], res[i].query
			what := fmt.Sprintf("%s %s φ=%v gen %d", opNames[op.kind], serveRanks[op.rank], op.phi, g)
			var err error
			switch {
			case op.kind == opCount:
				if want := strconv.Itoa(len(refs[0].w)); out.Count != want {
					err = fmt.Errorf("count %s, reference %s", out.Count, want)
				}
			case len(out.Answers) != 1:
				err = fmt.Errorf("%d answers, want 1", len(out.Answers))
			default:
				w := qjoin.Weight{K: out.Answers[0].Weight.K, Vec: out.Answers[0].Weight.Vec}
				if out.Source == qjoin.SourceSketch {
					err = refs[op.rank].checkApprox(w, op.phi, out.ErrorBound, approxEps)
				} else {
					err = refs[op.rank].checkExact(w, op.phi)
				}
			}
			if err != nil {
				r.mismatch(what, err)
			}
		}
	}
	last := gen0
	for g := range deltaAt {
		last = max(last, g)
	}
	if err := advance(last); err != nil {
		return "", err
	}
	p, err := qjoin.Prepare(q, cur, qjoin.Options{Parallelism: 2})
	if err != nil {
		return "", err
	}
	return p.Count().String(), nil
}

// serveLayers times the layers behind the server on the same inputs through
// their exported entry points: the compile pipeline, a two-shard plan's
// pivot loop and worker scaling, its sketches, the shard partition, and the
// snapshot codec and WAL.
func serveLayers(c config, r *report, run int, q *qjoin.Query, db *qjoin.DB, fs []*qjoin.Ranking, applied []*qjoin.Delta) error {
	rec := c.rec
	phase := rec.Begin("phase.layers", run, 0)
	defer rec.End(phase)
	tuples := db.Size()
	for i := 0; i < 2; i++ {
		if _, err := probePrepare(rec, phase, q, db, 2); err != nil {
			return err
		}
	}
	sp, err := qjoin.PrepareSharded(q, db, 2, qjoin.Options{Parallelism: 2})
	if err != nil {
		return err
	}
	var cs coreStats
	phis := []float64{0.25, 0.75}
	for _, f := range fs {
		for _, phi := range phis {
			_, st, _, err := exactAnswer(rec, phase, 0, sp, f, phi)
			if err != nil {
				return err
			}
			cs.add(st, tuples)
		}
	}
	if r.layer["parallel.speedup"], err = speedup(rec, phase, sp, fs, phis, 1); err != nil {
		return err
	}
	if len(applied) > 0 {
		if err := probeSketch(c, r, phase, sp, fs, applied[0]); err != nil {
			return err
		}
	}
	sh, err := shard.New(q, db.Unwrap(), 2, 2)
	if err != nil {
		return err
	}
	var sizes []float64
	for _, e := range sh.Engines() {
		sizes = append(sizes, float64(e.DB0().Size()))
	}
	r.layer["shard.skew"] = slices.Max(sizes) / (sum(sizes) / float64(len(sizes)))
	rp, err := newRestoreProbe(c, r, phase, sp, tuples)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		rp.decode(c, r, phase)
	}
	if err := probeWAL(c, phase, applied); err != nil {
		return err
	}
	t := buildLayerTable(rec.Spans())
	storePrepare(r, t)
	cs.store(r, t)
	storeSnap(r, t)
	storeSketch(r, t)
	r.layer["engine.update_ms"] = t.perOp("engine.update", "engine.update")
	return nil
}
