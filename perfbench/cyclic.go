package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/quantilejoins/qjoin"
)

// runCyclicUpdate is the cyclic-update workload: a triangle
// R(x,y),S(y,z),T(z,x) with 2^15 edges per relation over a 2^12 domain,
// which decomposes into two hypertree bags ({R,S} and {T}; |Q(D)| ≈ 500),
// prepared at Parallelism 2. Each op of the closed loop is one Update
// followed by two MAX and two LEX quantiles on the new plan, alternating;
// each round of ops is followed by a few snapshot restores. An answer sample is the time of one op's four
// quantiles: the first answer on a new plan pays ~40 ms of deferred work
// and the other three take a few tenths of a millisecond, so per call the
// median would sit on sub-millisecond calls, whose run-to-run spread on a
// shared 2-core host came close to 25%. Deltas insert and
// delete two edges per touched relation, rotating over R, S, T and R+T, so
// they rebuild one bag or both and |D| stays level.
func runCyclicUpdate(c config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	const edges, dom = 1 << 15, 1 << 12
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"), qjoin.NewAtom("T", "z", "x"))
	db := qjoin.NewDB()
	for _, rel := range []string{"R", "S", "T"} {
		rows := make([][]qjoin.Value, edges)
		for i := range rows {
			rows[i] = []qjoin.Value{rng.Int63n(dom), rng.Int63n(dom)}
		}
		db.MustAdd(rel, 2, rows)
	}
	tuples := db.Size()
	fs := []*qjoin.Ranking{qjoin.Max("x", "y", "z"), qjoin.Lex("x", "y", "z")}
	phis := phiGrid(rng, 16)
	deltas, err := newDeltaSource(rng, db, 2, func(rng *rand.Rand, _ string) []qjoin.Value {
		return []qjoin.Value{rng.Int63n(dom), rng.Int63n(dom)}
	})
	if err != nil {
		return err
	}
	rels := [][]string{{"R"}, {"S"}, {"T"}, {"R", "T"}}
	rec := c.rec
	run := rec.Begin("run", 0, 0)
	defer rec.End(run)

	// made is the newest setup's plan; p keeps the one the loop uses.
	var made *qjoin.Prepared
	setup, err := measureSetup(c, r, run, func(span int) (func(), error) {
		var err error
		_, err = timed(rec, "engine.prepare", span, func() error {
			made, err = qjoin.Prepare(q, db, qjoin.Options{Parallelism: 2})
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
	var ulat, alat []time.Duration
	nAnswers := 0
	var applied []*qjoin.Delta
	var cs coreStats
	var bags, remat float64
	cur := p
	block := c.block()
	i := 0
	for round := 0; round < rounds; round++ {
		if err := setup.again(phase); err != nil {
			return err
		}
		collect(rec, phase)
		deadline := time.Now().Add(block * 9 / 10)
		for k := 0; time.Now().Before(deadline) || k < minTail/rounds; k++ {
			d := deltas.next(rels[i%len(rels)])
			i++
			// Each update allocates its rebuilt bags; a collection before
			// each op keeps that garbage off the next op's clock.
			collect(rec, phase)
			start := time.Now()
			upd := rec.Begin("engine.update", phase, int64(i))
			next, err := cur.Update(d)
			rec.End(upd)
			du := time.Since(start)
			if !r.op(err) {
				continue
			}
			ulat = append(ulat, du)
			applied = append(applied, d)
			cur = next
			var opAnswers time.Duration
			for j := 0; j < 2*len(fs); j++ {
				f := fs[j%len(fs)]
				phi := phis[(4*i+j)%len(phis)]
				a, st, da, err := exactAnswer(rec, phase, int64(i), cur, f, phi)
				if !r.op(err) {
					continue
				}
				opAnswers += da
				nAnswers++
				cs.add(st, tuples)
				if j == 0 && st.Decomp != nil {
					// The plan's decomposition stats describe the update
					// that made it: bags rebuilt and their join time.
					bags += float64(st.Decomp.RematerializedBags)
					mat := time.Duration(st.Decomp.MaterializeNanos)
					rec.Add("decomp.rematerialize", upd, int64(i), start, start.Add(mat))
					remat++
				}
				b, err := timedBaseline(rec, phase, cur, f, phi)
				if err != nil {
					return err
				}
				if err := checkWeight(f, a.Weight, b.Weight); err != nil {
					r.mismatch(fmt.Sprintf("op %d %v φ=%v", i, f, phi), err)
				}
			}
			alat = append(alat, opAnswers)
		}
		collect(rec, phase)
		for k := 0; k < 5; k++ {
			rp.decode(c, r, phase)
		}
	}
	rec.End(phase)
	r.latencies("update", ulat)
	r.latencies("answer", alat)
	r.throughput(nAnswers, alat)

	phase = rec.Begin("phase.check", run, 0)
	b, err := timedBaseline(rec, phase, p, fs[0], phis[0])
	if err != nil {
		return err
	}
	rp.finish(c, r, phase, fs[0], phis[0], b.Weight)
	rec.End(phase)

	if rec != nil {
		phase = rec.Begin("phase.layers", run, 0)
		var bagRows int
		for i := 0; i < 3; i++ {
			if bagRows, err = probePrepare(rec, phase, q, db, 2); err != nil {
				return err
			}
		}
		r.layer["decomp.bag_rows"] = float64(bagRows)
		sp, err := speedup(rec, phase, cur, fs, phis[:8], 5)
		if err != nil {
			return err
		}
		r.layer["parallel.speedup"] = sp
		if err := probeSketch(c, r, phase, cur, fs, deltas.next(rels[0])); err != nil {
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
		if remat > 0 {
			r.layer["decomp.rematerialize_ms"] = ms(t.self["decomp.rematerialize"]) / remat
			r.layer["decomp.rematerialized_bags"] = bags / remat
		}
		r.layer["engine.update_ms"] = t.perOp("engine.update", "engine.update")
		r.layer["shard.skew"] = 1
		r.layer["shard.touched"] = 1
	}
	return nil
}
