package main

import (
	"math/rand"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 0.9); ok {
		t.Fatal("p90 of 99 samples reported; only 9 lie beyond it")
	}
	xs = append(xs, 100)
	v, ok := tail(xs, 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	// Started 50ms in the past: the generator is late for the first request.
	start := time.Now().Add(-50 * time.Millisecond)
	lat, late := openLoop(nil, 0, start, due, 1, func(i int, _ time.Time) {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
	})
	if late[0] < 50*time.Millisecond {
		t.Errorf("lateness of a request sent 50ms after its due time = %v", late[0])
	}
	// Requests 1 and 2 waited behind request 0 on the single worker: their
	// latency runs from their due time, so it includes that wait.
	for i := 1; i < 3; i++ {
		if min := 110*time.Millisecond - due[i]; lat[i] < min {
			t.Errorf("request %d latency %v, want ≥ %v (time queued behind request 0)", i, lat[i], min)
		}
	}

	// A generator on schedule reports (nearly) no lateness.
	_, late = openLoop(nil, 0, time.Now(), due, 1, func(int, time.Time) {})
	for i, l := range late {
		if l > 5*time.Millisecond {
			t.Errorf("on-time request %d reported %v late", i, l)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100 * ms},
		// Overlapping children count once; the part sticking out of the
		// parent does not count.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "a", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	tab := buildLayerTable(spans)
	if tab.self["a"] != 50*ms || tab.count["a"] != 2 {
		t.Errorf("layer a: self %v count %d, want 50ms 2", tab.self["a"], tab.count["a"])
	}
}

func TestCoverageCountsOperationsOnly(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "phase.serve", Start: 0, End: 80 * ms},
		// The generator idling between requests is in no operation.
		{ID: 3, Parent: 2, Name: "bench.idle", Start: 0, End: 40 * ms},
		// One request: 10ms of generator lag, 20ms in the handler, 10ms
		// in the transport (the request's own self time).
		{ID: 4, Parent: 2, Name: "http.request", Start: 40 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: "bench.queue", Start: 40 * ms, End: 50 * ms},
		{ID: 6, Parent: 4, Name: "server.handler", Start: 55 * ms, End: 75 * ms},
		// An answer made by the output check times no end-to-end metric.
		{ID: 7, Parent: 1, Name: "phase.check", Start: 80 * ms, End: 100 * ms},
		{ID: 8, Parent: 7, Name: "core.answer", Start: 80 * ms, End: 100 * ms},
	}
	if c := buildLayerTable(spans).coverage; c != 0.75 {
		t.Errorf("coverage %v, want 0.75 (10ms of lag in 40ms of requests)", c)
	}
}

func TestCheckRejectsWrongWeight(t *testing.T) {
	q := qjoin.NewQuery(qjoin.NewAtom("R", "x", "y"), qjoin.NewAtom("S", "y", "z"))
	db := qjoin.NewDB().
		MustAdd("R", 2, [][]qjoin.Value{{1, 1}, {2, 1}, {3, 2}}).
		MustAdd("S", 2, [][]qjoin.Value{{1, 10}, {1, 20}, {2, 30}})
	f := qjoin.Sum("x", "z")
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := sortedWeights(p, []*qjoin.Ranking{f})
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[0]
	// Answers: 11, 21, 12, 22, 33 — sorted 11 12 21 22 33.
	for _, phi := range []float64{0, 0.3, 0.5, 0.99} {
		a, err := p.Quantile(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.checkExact(a.Weight, phi); err != nil {
			t.Errorf("φ=%v: correct answer rejected: %v", phi, err)
		}
		wrong := a.Weight
		wrong.K++
		if ref.checkExact(wrong, phi) == nil {
			t.Errorf("φ=%v: wrong weight %v accepted", phi, wrong)
		}
		b, err := p.BaselineQuantile(f, phi)
		if err != nil {
			t.Fatal(err)
		}
		if checkWeight(f, wrong, b.Weight) == nil {
			t.Errorf("φ=%v: wrong weight %v matched the baseline", phi, wrong)
		}
	}
	// φ=0.5 is rank 2 (weight 21). Weight 12 holds rank 1: within a bound
	// of 0 (slack one rank) it passes, weight 33 (rank 4) does not, nor does
	// a weight no answer has, nor a bound above the requested eps.
	if err := ref.checkApprox(qjoin.Weight{K: 12}, 0.5, 0, 0.1); err != nil {
		t.Errorf("rank-1 answer for rank 2 at one rank of slack rejected: %v", err)
	}
	if ref.checkApprox(qjoin.Weight{K: 33}, 0.5, 0, 0.1) == nil {
		t.Error("rank-4 answer for rank 2 accepted")
	}
	if ref.checkApprox(qjoin.Weight{K: 13}, 0.5, 0.4, 0.5) == nil {
		t.Error("weight of no answer accepted")
	}
	if ref.checkApprox(qjoin.Weight{K: 21}, 0.5, 0.2, 0.1) == nil {
		t.Error("bound 0.2 accepted against eps 0.1")
	}
}

func TestDeltaSourceNeverRunsDry(t *testing.T) {
	db := qjoin.NewDB().MustAdd("R", 2, [][]qjoin.Value{{1, 1}, {2, 2}, {3, 3}, {3, 3}})
	rng := rand.New(rand.NewSource(1))
	ds, err := newDeltaSource(rng, db, 2, func(rng *rand.Rand, _ string) []qjoin.Value {
		return []qjoin.Value{rng.Int63n(4), rng.Int63n(4)}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten times more deletes than the input has rows that occur once: each
	// delta must still delete rows the relation holds once and insert rows
	// it does not hold, so the size stays level.
	for i := 0; i < 10; i++ {
		d := ds.next([]string{"R"})
		before := db.Size()
		if db, err = db.Apply(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if db.Size() != before {
			t.Fatalf("delta %d changed |D| from %d to %d", i, before, db.Size())
		}
	}
	if _, err := newDeltaSource(rng, db, 9, nil); err == nil {
		t.Error("a delta source deleting more rows than occur once was accepted")
	}
}
