package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// approxEps is the rank-error budget of every sketch-tier request: 1/16, so
// ModeApprox builds at the default 1/32 grid and ModeAuto can serve from it.
const approxEps = 1.0 / 16

// updatesPerRound is the size of exact-sum's update block in each round:
// 1000 updates per run, enough for a steady median and a p90.
const updatesPerRound = 100

// phiGrid is the fixed φ set the library workloads cycle through, in a
// seeded order: a fixed set keeps the per-φ cost mix the same across seeds.
func phiGrid(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + 0.5) / float64(n)
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// runExactSum is the exact-sum workload: one Prepared plan over a 2-path
// join (32k tuples, |Q(D)| ≈ 258k) answering exact SUM quantiles in a closed
// loop at Parallelism 1. The pivot loop does nearly all the work. Each
// round also applies a fixed block of incremental updates and a few
// snapshot restores, so that a change aimed at the pivot loop can show it
// leaves those alone.
func runExactSum(c config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	q, idb := workload.Path(rng, 2, 1<<14, 1<<10)
	db := qjoin.WrapDB(idb)
	tuples := db.Size()
	f := qjoin.Sum("x1", "x2", "x3")
	phis := phiGrid(rng, 16)
	deltas, err := newDeltaSource(rng, db, 8, func(rng *rand.Rand, _ string) []qjoin.Value {
		return []qjoin.Value{rng.Int63n(1 << 10), rng.Int63n(1 << 10)}
	})
	if err != nil {
		return err
	}
	rels := [][]string{{"R1"}, {"R2"}}
	rec := c.rec
	run := rec.Begin("run", 0, 0)
	defer rec.End(run)

	// made is the newest setup's plan; p keeps the one the loop uses.
	var made *qjoin.Prepared
	setup, err := measureSetup(c, r, run, func(span int) (func(), error) {
		var err error
		_, err = timed(rec, "engine.prepare", span, func() error {
			made, err = qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		timed(rec, "yannakakis.count", span, func() error { made.Count(); return nil })
		return func() { made = nil }, nil
	})
	if err != nil {
		return err
	}
	p := made
	r.infof("tuples=%d answers=%s phis=%d", tuples, p.Count(), len(phis))

	phase := rec.Begin("phase.probes", run, 0)
	rp, err := newRestoreProbe(c, r, phase, p, tuples)
	if err != nil {
		return err
	}
	rec.End(phase)

	phase = rec.Begin("phase.loop", run, 0)
	type got struct {
		phi float64
		w   qjoin.Weight
	}
	var answers []got
	var lat, ulat []time.Duration
	var applied []*qjoin.Delta
	var cs coreStats
	cur := p
	block := c.block()
	i, u := 0, 0
	for round := 0; round < rounds; round++ {
		if err := setup.again(phase); err != nil {
			return err
		}
		collect(rec, phase)
		deadline := time.Now().Add(block * 9 / 10)
		for k := 0; time.Now().Before(deadline) || k < minTail/rounds; k++ {
			phi := phis[i%len(phis)]
			i++
			a, st, d, err := exactAnswer(rec, phase, int64(i), p, f, phi)
			if r.op(err) {
				lat = append(lat, d)
				answers = append(answers, got{phi, a.Weight})
				cs.add(st, tuples)
			}
		}
		// A chain of balanced deltas, apart from the plan the reads use. The
		// block has a fixed size, so the mix of work in a run does not
		// depend on how fast updates are.
		collect(rec, phase)
		for k := 0; k < updatesPerRound; k++ {
			d := deltas.next(rels[u%len(rels)])
			u++
			var next *qjoin.Prepared
			du, err := timed(rec, "engine.update", phase, func() (err error) { next, err = cur.Update(d); return err })
			if r.op(err) {
				ulat = append(ulat, du)
				applied = append(applied, d)
				cur = next
			}
		}
		collect(rec, phase)
		for k := 0; k < 10; k++ {
			rp.decode(c, r, phase)
		}
	}
	rec.End(phase)
	r.latencies("answer", lat)
	r.throughput(len(lat), lat)
	r.latencies("update", ulat)

	// Every answer against the materialize-then-select reference.
	phase = rec.Begin("phase.check", run, 0)
	ref := map[float64]qjoin.Weight{}
	for _, phi := range phis {
		b, err := timedBaseline(rec, phase, p, f, phi)
		if err != nil {
			return err
		}
		ref[phi] = b.Weight
	}
	for _, a := range answers {
		if err := checkWeight(f, a.w, ref[a.phi]); err != nil {
			r.mismatch(fmt.Sprintf("exact φ=%v", a.phi), err)
		}
	}
	rp.finish(c, r, phase, f, phis[0], ref[phis[0]])
	// The update chain's last plan must answer like a fresh compile.
	a, _, _, err := exactAnswer(rec, phase, 0, cur, f, 0.5)
	if r.op(err) {
		b, err := timedBaseline(rec, phase, cur, f, 0.5)
		if err != nil {
			return err
		}
		if err := checkWeight(f, a.Weight, b.Weight); err != nil {
			r.mismatch("exact after updates", err)
		}
	}
	rec.End(phase)

	if rec != nil {
		phase = rec.Begin("phase.layers", run, 0)
		for i := 0; i < 3; i++ {
			if _, err := probePrepare(rec, phase, q, db, 1); err != nil {
				return err
			}
		}
		sp, err := speedup(rec, phase, p, []*qjoin.Ranking{f}, phis[:4], 1)
		if err != nil {
			return err
		}
		r.layer["parallel.speedup"] = sp
		if err := probeSketch(c, r, phase, cur, []*qjoin.Ranking{f}, deltas.next(rels[0])); err != nil {
			return err
		}
		if err := probeWAL(c, phase, applied[:min(len(applied), 50)]); err != nil {
			return err
		}
		rec.End(phase)
		t := buildLayerTable(rec.Spans())
		storePrepare(r, t)
		cs.store(r, t)
		storeSnap(r, t)
		storeSketch(r, t)
		r.layer["engine.update_ms"] = t.perOp("engine.update", "engine.update")
		// Unsharded: the whole dataset is one shard, touched by every delta.
		r.layer["shard.skew"] = 1
		r.layer["shard.touched"] = 1
	}
	return nil
}

// timedBaseline is BaselineQuantile under a "core.baseline" span.
func timedBaseline(rec *Recorder, parent int, p *qjoin.Prepared, f *qjoin.Ranking, phi float64) (*qjoin.Answer, error) {
	var b *qjoin.Answer
	_, err := timed(rec, "core.baseline", parent, func() (err error) { b, err = p.BaselineQuantile(f, phi); return err })
	if err != nil {
		return nil, fmt.Errorf("baseline φ=%v: %w", phi, err)
	}
	return b, nil
}
