// Snapshot compatibility fixtures: testdata/snapshots holds plan snapshots
// written by an earlier revision of the codec, one per plan layout. Loading
// each one must answer exactly like a freshly built plan, and snapshotting
// the loaded plan must reproduce the fixture byte for byte, so the wire
// format cannot drift without this test noticing.
//
// Each fixture is the Snapshot of the plan its fixturePlans builder returns.
package qjoin_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
)

// fixtureRows returns n deterministic rows of the given arity over a small
// value domain, so joins fan out and weights tie.
func fixtureRows(rng *rand.Rand, n, arity int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, arity)
		for j := range rows[i] {
			rows[i][j] = rng.Int63n(8)
		}
	}
	return rows
}

// fixturePlans builds the plans the fixtures were written from: an acyclic
// unsharded plan with one warm sketch, a cyclic (triangle) plan, and a
// 2-shard plan with one warm sketch. The ranking each fixture is checked
// under is returned alongside.
func fixturePlans(t *testing.T) map[string]struct {
	plan qjoin.Plan
	rank *qjoin.Ranking
} {
	t.Helper()
	out := make(map[string]struct {
		plan qjoin.Plan
		rank *qjoin.Ranking
	})
	build := func(name, qs string, rels []string, shards int, f *qjoin.Ranking, warm bool) {
		rng := rand.New(rand.NewSource(int64(len(out)) + 41))
		q, err := qjoin.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		db := qjoin.NewDB()
		for _, r := range rels {
			db.MustAdd(r, 2, fixtureRows(rng, 40, 2))
		}
		var p qjoin.Plan
		if shards > 0 {
			p, err = qjoin.PrepareSharded(q, db, shards, qjoin.Options{Parallelism: 1})
		} else {
			p, err = qjoin.Prepare(q, db, qjoin.Options{Parallelism: 1})
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warm {
			if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
				t.Fatalf("%s warm: %v", name, err)
			}
		}
		out[name] = struct {
			plan qjoin.Plan
			rank *qjoin.Ranking
		}{p, f}
	}
	build("acyclic", "R(x,y),S(y,z)", []string{"R", "S"}, 0, qjoin.Sum("x", "z"), true)
	build("triangle", "R(x,y),S(y,z),T(z,x)", []string{"R", "S", "T"}, 0, qjoin.Sum("x", "y", "z"), false)
	build("sharded2", "R(x,y),S(y,z)", []string{"R", "S"}, 2, qjoin.Max("x", "z"), true)
	return out
}

func TestSnapshotFixtures(t *testing.T) {
	fresh := fixturePlans(t)
	for _, name := range []string{"acyclic", "triangle", "sharded2"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "snapshots", name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := qjoin.LoadPlanBytes(want, qjoin.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			live, f := fresh[name].plan, fresh[name].rank
			if lc, gc := live.Count(), loaded.Count(); lc.Cmp(gc) != 0 {
				t.Fatalf("count: loaded %v, fresh %v", gc, lc)
			}
			for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
				wa, ws, err := live.QuantileStats(f, phi)
				if err != nil {
					t.Fatalf("φ=%v fresh: %v", phi, err)
				}
				ga, gs, err := loaded.QuantileStats(f, phi)
				if err != nil {
					t.Fatalf("φ=%v loaded: %v", phi, err)
				}
				if !reflect.DeepEqual(ga, wa) {
					t.Errorf("φ=%v: answer: loaded %v, fresh %v", phi, ga, wa)
				}
				if gs, ws := normalizeDecomp(gs), normalizeDecomp(ws); !reflect.DeepEqual(gs, ws) {
					t.Errorf("φ=%v: RunStats: loaded %+v %+v, fresh %+v %+v", phi, gs, gs.Decomp, ws, ws.Decomp)
				}
			}
			var buf bytes.Buffer
			if err := loaded.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("re-snapshot of the loaded plan differs from the fixture (%d vs %d bytes)", buf.Len(), len(want))
			}
			buf.Reset()
			if err := live.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("snapshot of a freshly built plan differs from the fixture (%d vs %d bytes)", buf.Len(), len(want))
			}
		})
	}
}
