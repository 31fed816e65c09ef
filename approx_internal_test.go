package qjoin

import (
	"bytes"
	"testing"
)

// TestSketchSharedByEqualRankings: two distinct but equal Ranking values on
// one plan share one sketch entry. The second ModeApprox answer is served by
// the entry the first one built, with no rebuild; the same holds on a plan
// restored from a snapshot, whose entry was built from the parsed spec.
func TestSketchSharedByEqualRankings(t *testing.T) {
	q := NewQuery(NewAtom("R", "x", "y"), NewAtom("S", "y", "z"))
	db := NewDB()
	db.MustAdd("R", 2, [][]int64{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}})
	db.MustAdd("S", 2, [][]int64{{1, 10}, {1, 20}, {2, 30}, {3, 40}, {3, 50}})
	p, err := Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	req := QuantileRequest{Phi: 0.5, Mode: ModeApprox}
	if _, err := p.Answer(Sum("x", "z"), req); err != nil {
		t.Fatal(err)
	}
	checkOneEntry := func(p *Prepared) *sketchEntry {
		t.Helper()
		p.skMu.Lock()
		defer p.skMu.Unlock()
		if len(p.sketches) != 1 {
			t.Fatalf("plan holds %d sketch entries, want 1", len(p.sketches))
		}
		for _, e := range p.sketches {
			return e
		}
		return nil
	}
	built := checkOneEntry(p)
	a, err := p.Answer(Sum("x", "z"), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != SourceSketch {
		t.Fatalf("second answer source = %s, want sketch", a.Source)
	}
	if checkOneEntry(p) != built {
		t.Fatal("an equal ranking rebuilt the sketch entry")
	}

	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadPlanBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	loaded := checkOneEntry(r)
	if a, err = r.Answer(Sum("x", "z"), req); err != nil || a.Source != SourceSketch {
		t.Fatalf("restored plan: %v, %v", a, err)
	}
	if checkOneEntry(r) != loaded {
		t.Fatal("a caller-built ranking rebuilt the restored sketch entry")
	}
}
