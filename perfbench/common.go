package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/snap"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// minTail is the smallest sample that supports a p90 (minBeyond samples
// beyond it). Closed loops run until both their time is spent and this many
// samples are in.
const minTail = 100

// rounds is how many blocks each kind of sample in a library workload is
// split into. Blocks of different kinds alternate, so every kind is sampled
// across the whole run and a slow second of the host touches them alike;
// a collection before each block keeps one block's garbage from being
// collected on another block's clock.
const rounds = 10

// collect runs a full GC under a bench.gc span.
func collect(rec *Recorder, parent int) {
	timed(rec, "bench.gc", parent, func() error { runtime.GC(); return nil })
}

// config is one workload run.
type config struct {
	seed    int64
	seconds float64
	// setupReps is how many times the run sets the system up before its
	// loop, and roundSetups how many more times in each round of a library
	// workload's loop.
	setupReps, roundSetups int
	// rec is nil in the untraced run.
	rec *Recorder
	// dir is the run's scratch directory inside the checkout.
	dir string
}

// block is the wall time of one round of a library workload's loop.
func (c config) block() time.Duration {
	return time.Duration(c.seconds * float64(time.Second) / rounds)
}

// report collects what one workload run measured.
type report struct {
	info      []string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// mismatches counts wrong answers; wrong keeps the first few messages
	// of wrong answers and failed operations.
	mismatches int
	wrong      []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.wrong) < 20 {
			r.wrong = append(r.wrong, "error: "+err.Error())
		}
		return false
	}
	return true
}

// mismatch records a wrong answer found by an output check. The operation
// was already counted attempted; it now counts failed too.
func (r *report) mismatch(what string, err error) {
	r.failed++
	r.mismatches++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, what+": "+err.Error())
	}
}

// latencies stores p50 and p90 of ds under prefix (prefix_p50_ms, ...). The
// p90 is stored only when the sample supports it.
func (r *report) latencies(prefix string, ds []time.Duration) {
	xs := msAll(ds)
	r.e2e[prefix+"_p50_ms"] = median(xs)
	if v, ok := tail(xs, 0.9); ok {
		r.e2e[prefix+"_p90_ms"] = v
	}
}

// throughput stores answers_per_s: n exact answers over the time ds spent
// answering them. For a single closed-loop caller this is its throughput.
func (r *report) throughput(n int, ds []time.Duration) {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	if total > 0 {
		r.e2e["answers_per_s"] = float64(n) / total.Seconds()
	}
}

// heapMB is the live heap after two collections (the second empties the
// sync.Pool victim caches), in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupTimer times setups. setup_s is the median of the setups taken
// between the rounds of a library workload's loop, or, on a workload
// without rounds, of those taken before its loop.
type setupTimer struct {
	c      config
	r      *report
	setup  func(span int) (teardown func(), err error)
	rounds []float64
}

// measureSetup sets the system up c.setupReps times, each after a full GC.
// Each rep returns a teardown; every rep but the last is torn down at once.
// It stores setup_s (median) and plan_heap_mb: the live heap the last rep
// added. Measuring across the last rep only leaves out what the first rep
// allocates once per process (type caches, package-level pools), which
// varied from process to process.
//
// The library workloads take their setup_s samples between their rounds
// instead (setupTimer.again), so that setup is sampled across the whole
// run like the loop's metrics, with the loop's live heap: a setup before
// the loop, with a smaller live heap, pays a collection inside it that one
// during the loop does not, and a median over both kinds swung between
// them from run to run.
func measureSetup(c config, r *report, parent int, setup func(span int) (teardown func(), err error)) (*setupTimer, error) {
	st := &setupTimer{c: c, r: r, setup: setup}
	var base float64
	var times []float64
	for i := 0; i < c.setupReps; i++ {
		base = heapMB()
		d, down, err := st.rep(parent)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		if i < c.setupReps-1 {
			down()
		}
	}
	r.e2e["plan_heap_mb"] = heapMB() - base
	r.e2e["setup_s"] = median(times)
	return st, nil
}

// rep sets the system up once under a phase.setup span and returns its
// time in seconds.
func (st *setupTimer) rep(parent int) (float64, func(), error) {
	span := st.c.rec.Begin("phase.setup", parent, 0)
	start := time.Now()
	down, err := st.setup(span)
	d := time.Since(start).Seconds()
	st.c.rec.End(span)
	if err != nil {
		return 0, nil, fmt.Errorf("setup: %w", err)
	}
	return d, down, nil
}

// again sets the system up and tears it down c.roundSetups times, each
// after a full GC, and updates setup_s.
func (st *setupTimer) again(parent int) error {
	for i := 0; i < st.c.roundSetups; i++ {
		collect(st.c.rec, parent)
		d, down, err := st.rep(parent)
		if err != nil {
			return err
		}
		st.rounds = append(st.rounds, d)
		down()
	}
	if len(st.rounds) > 0 {
		st.r.e2e["setup_s"] = median(st.rounds)
	}
	return nil
}

// exactAnswer runs one exact quantile under a "core.answer" span. In the
// traced run it asks the plan for its phase split and records the four
// phases as child spans, laid end to end from the answer's start (their
// order inside the span is not the program's order; only their lengths
// are), plus "core.terminal" for the rest of the answer's wall time.
func exactAnswer(rec *Recorder, parent int, req int64, p qjoin.Plan, f *qjoin.Ranking, phi float64, opts ...qjoin.Options) (*qjoin.Answer, *qjoin.RunStats, time.Duration, error) {
	if rec != nil && len(opts) == 0 {
		opts = []qjoin.Options{{CollectPhases: true}}
	}
	start := time.Now()
	a, st, err := p.QuantileStats(f, phi, opts...)
	end := time.Now()
	if rec != nil {
		id := rec.Add("core.answer", parent, req, start, end)
		at := start
		if err == nil && st.Phases != nil {
			for _, it := range st.Phases.Iterations {
				for _, ph := range []struct {
					name string
					d    time.Duration
				}{{"core.pivot", it.Pivot}, {"core.trim", it.Trim}, {"core.derive", it.Derive}, {"core.count", it.Count}} {
					rec.Add(ph.name, id, req, at, at.Add(ph.d))
					at = at.Add(ph.d)
				}
			}
		}
		if at.Before(end) {
			rec.Add("core.terminal", id, req, at, end)
		}
	}
	return a, st, end.Sub(start), err
}

// coreStats accumulates the pivot loop's public counters over answers.
type coreStats struct {
	n, iterations, materialized int
	growth                      float64
}

func (s *coreStats) add(st *qjoin.RunStats, tuples int) {
	if st == nil {
		return
	}
	s.n++
	s.iterations += st.Iterations
	s.materialized += st.Materialized
	s.growth += float64(st.MaxInstanceTuples) / float64(tuples)
}

// store writes the core.* layer metrics from the span table and counters.
func (s *coreStats) store(r *report, t layerTable) {
	for _, ph := range []string{"pivot", "trim", "derive", "count", "terminal"} {
		r.layer["core."+ph+"_ms"] = t.perOp("core."+ph, "core.answer")
	}
	if s.n > 0 {
		r.layer["core.iterations"] = float64(s.iterations) / float64(s.n)
		r.layer["core.materialized"] = float64(s.materialized) / float64(s.n)
		r.layer["core.trim_growth"] = s.growth / float64(s.n)
	}
}

// timed runs fn under span name and returns its wall time.
func timed(rec *Recorder, name string, parent int, fn func() error) (time.Duration, error) {
	id := rec.Begin(name, parent, 0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	rec.End(id)
	return d, err
}

// probePrepare times the compile pipeline of engine.NewWorkers layer by
// layer, by calling each layer's exported entry point on the same inputs:
// self-join elimination and deduplication, join-tree construction (with the
// hypertree decomposition and bag joins for a cyclic query), the executable
// tree, and counting. It also times qjoin.Prepare itself.
func probePrepare(rec *Recorder, parent int, q *qjoin.Query, db *qjoin.DB, workers int) (bagRows int, err error) {
	if _, err := timed(rec, "engine.prepare", parent, func() error {
		_, err := qjoin.Prepare(q, db, qjoin.Options{Parallelism: workers})
		return err
	}); err != nil {
		return 0, err
	}
	var sq *query.Query
	var sdb *relation.Database
	timed(rec, "relation.dedup", parent, func() error {
		sq, sdb = query.EliminateSelfJoins(q, db.Unwrap())
		out := relation.NewDatabase()
		for _, name := range sdb.Names() {
			out.Add(sdb.Get(name).DedupedWorkers(workers))
		}
		sdb = out
		return nil
	})
	var tree *jointree.Tree
	_, buildErr := timed(rec, "jointree.build", parent, func() (err error) {
		tree, err = jointree.Build(sq)
		return err
	})
	if buildErr != nil {
		var d *decomp.Decomposition
		if _, err := timed(rec, "decomp.decompose", parent, func() (err error) {
			d, err = decomp.Decompose(sq, decomp.MaxDecompWidth)
			return err
		}); err != nil {
			return 0, err
		}
		timed(rec, "decomp.materialize", parent, func() error {
			var st *decomp.Stats
			sdb, st = d.Materialize(sq, sdb, workers)
			bagRows = st.TotalBagRows
			return nil
		})
		sq = d.Query()
		if _, err := timed(rec, "jointree.build", parent, func() (err error) {
			tree, err = jointree.Build(sq)
			return err
		}); err != nil {
			return 0, err
		}
	}
	var exec *jointree.Exec
	if _, err := timed(rec, "jointree.exec", parent, func() (err error) {
		exec, err = jointree.NewExecWorkers(sq, sdb, tree, workers)
		return err
	}); err != nil {
		return 0, err
	}
	timed(rec, "yannakakis.count", parent, func() error {
		yannakakis.CountWorkers(exec, workers)
		return nil
	})
	return bagRows, nil
}

// storePrepare writes the prepare-layer metrics, each the mean per call. A
// cyclic query builds two join trees per compile (the failed attempt on the
// source and the bag query's), so jointree.build is per probe.
func storePrepare(r *report, t layerTable) {
	for _, name := range []string{"engine.prepare", "relation.dedup", "jointree.exec", "yannakakis.count", "decomp.decompose", "decomp.materialize"} {
		r.layer[name+"_ms"] = t.perOp(name, name)
	}
	r.layer["jointree.build_ms"] = t.perOp("jointree.build", "relation.dedup")
}

// restoreProbe decodes one snapshot of a plan over and over: each decode
// runs until the plan knows |Q(D)| and can answer (restore_ms, the median).
// Like the sketch probe, its samples are spread over the whole run.
type restoreProbe struct {
	buf   []byte
	times []float64
	last  qjoin.Plan
}

// newRestoreProbe snapshots p once under a snap.encode span.
func newRestoreProbe(c config, r *report, parent int, p qjoin.Plan, tuples int) (*restoreProbe, error) {
	var buf bytes.Buffer
	if _, err := timed(c.rec, "snap.encode", parent, func() error { return p.Snapshot(&buf) }); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	r.layer["snap.bytes_per_tuple"] = float64(buf.Len()) / float64(tuples)
	return &restoreProbe{buf: buf.Bytes()}, nil
}

// decode restores the plan once under a snap.decode span.
func (rp *restoreProbe) decode(c config, r *report, parent int) {
	var out qjoin.Plan
	d, err := timed(c.rec, "snap.decode", parent, func() (err error) {
		if out, err = qjoin.LoadPlanBytes(rp.buf); err == nil {
			out.Count()
		}
		return err
	})
	if r.op(err) {
		rp.times = append(rp.times, ms(d))
		rp.last = out
	}
}

// finish stores restore_ms and checks that the last restored plan answers
// φ with the reference weight want.
func (rp *restoreProbe) finish(c config, r *report, parent int, f *qjoin.Ranking, phi float64, want qjoin.Weight) {
	r.e2e["restore_ms"] = median(rp.times)
	if rp.last == nil {
		return
	}
	a, _, _, err := exactAnswer(c.rec, parent, 0, rp.last, f, phi)
	if r.op(err) {
		if err := checkWeight(f, a.Weight, want); err != nil {
			r.mismatch("restored plan", err)
		}
	}
}

// probeWAL appends deltas to a fresh write-ahead log (one fsynced record
// each) and replays it, under snap.wal_append and snap.replay spans.
func probeWAL(c config, parent int, deltas []*qjoin.Delta) error {
	path := filepath.Join(c.dir, fmt.Sprintf("probe-%d.wal", c.seed))
	defer os.Remove(path)
	w, err := snap.OpenWAL(path)
	if err != nil {
		return err
	}
	for i, d := range deltas {
		if _, err := timed(c.rec, "snap.wal_append", parent, func() error { return w.Append(uint64(i+1), d) }); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	n := 0
	_, err = timed(c.rec, "snap.replay", parent, func() error {
		return snap.ReplayWAL(path, func(uint64, *qjoin.Delta) error { n++; return nil })
	})
	if err == nil && n != len(deltas) {
		err = fmt.Errorf("WAL replay returned %d records, appended %d", n, len(deltas))
	}
	return err
}

// storeSnap writes the snapshot-layer metrics.
func storeSnap(r *report, t layerTable) {
	r.layer["snap.encode_ms"] = t.perOp("snap.encode", "snap.encode")
	r.layer["snap.decode_ms"] = t.perOp("snap.decode", "snap.decode")
	r.layer["snap.wal_append_ms"] = t.perOp("snap.wal_append", "snap.wal_append")
	r.layer["snap.replay_ms"] = t.perOp("snap.replay", "snap.replay")
}

// speedup answers the same φ set on p at one and at two workers and returns
// the ratio of the total times (one worker ÷ two).
func speedup(rec *Recorder, parent int, p qjoin.Plan, fs []*qjoin.Ranking, phis []float64, reps int) (float64, error) {
	var t [2]time.Duration
	for rep := 0; rep < reps; rep++ {
		for _, f := range fs {
			for _, phi := range phis {
				for w := 1; w <= 2; w++ {
					d, err := timed(rec, "parallel.answer", parent, func() error {
						_, err := p.Quantile(f, phi, qjoin.Options{Parallelism: w})
						return err
					})
					if err != nil {
						return 0, err
					}
					t[w-1] += d
				}
			}
		}
	}
	return float64(t[0]) / float64(t[1]), nil
}

// deltaSource builds balanced deltas over a generated database. Each
// delta inserts k rows into each of its relations that the relation does
// not hold, and deletes the k rows that have waited longest among those it
// holds exactly once: first the input's own, then the ones earlier deltas
// inserted. So every delete is a real set-level deletion, |D| stays level,
// and the pool of deletable rows never runs dry, however many deltas a run
// applies. Deltas must be applied in the order next returns them.
type deltaSource struct {
	rng   *rand.Rand
	k     int
	fresh func(rng *rand.Rand, rel string) []qjoin.Value
	// pool holds each relation's deletable rows, oldest first; held counts
	// the occurrences of every row of the relation.
	pool map[string][][]qjoin.Value
	held map[string]map[string]int
	enc  relation.KeyEncoder
}

func newDeltaSource(rng *rand.Rand, db *qjoin.DB, k int, fresh func(rng *rand.Rand, rel string) []qjoin.Value) (*deltaSource, error) {
	ds := &deltaSource{rng: rng, k: k, fresh: fresh, pool: map[string][][]qjoin.Value{}, held: map[string]map[string]int{}}
	inner := db.Unwrap()
	for _, name := range inner.Names() {
		r := inner.Get(name)
		held := make(map[string]int, r.Len())
		cols := r.Cols()
		for i := 0; i < r.Len(); i++ {
			held[string(ds.enc.RowAt(cols, i))]++
		}
		var rows [][]qjoin.Value
		for i := 0; i < r.Len(); i++ {
			if held[string(ds.enc.RowAt(cols, i))] == 1 {
				rows = append(rows, r.RowValues(i))
			}
		}
		if len(rows) < k {
			return nil, fmt.Errorf("relation %s has %d rows that occur once, a delta deletes %d", name, len(rows), k)
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		ds.pool[name] = rows
		ds.held[name] = held
	}
	return ds, nil
}

// next returns a delta over rels with k inserts and k deletes per relation.
func (ds *deltaSource) next(rels []string) *qjoin.Delta {
	d := qjoin.NewDelta()
	for _, rel := range rels {
		held := ds.held[rel]
		for i := 0; i < ds.k; i++ {
			row := ds.fresh(ds.rng, rel)
			for held[string(ds.enc.Row(row))] > 0 {
				row = ds.fresh(ds.rng, rel)
			}
			held[string(ds.enc.Row(row))] = 1
			d.Insert(rel, row)
			ds.pool[rel] = append(ds.pool[rel], row)
		}
		gone := ds.pool[rel][:ds.k]
		d.Delete(rel, gone...)
		for _, row := range gone {
			delete(held, string(ds.enc.Row(row)))
		}
		ds.pool[rel] = ds.pool[rel][ds.k:]
	}
	return d
}
