package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
)

// pathInstance is the ℓ-atom path R0(x0,x1),…,Rℓ-1(xℓ-1,xℓ) with three rows
// per relation.
func pathInstance(l int) (*query.Query, *relation.Database) {
	q := &query.Query{}
	db := relation.NewDatabase()
	for i := 0; i < l; i++ {
		name := fmt.Sprintf("R%d", i)
		q.Atoms = append(q.Atoms, query.Atom{Rel: name, Vars: []query.Var{
			query.Var(fmt.Sprintf("x%d", i)), query.Var(fmt.Sprintf("x%d", i+1)),
		}})
		db.Add(relation.FromRows(name, 2, [][]relation.Value{{1, 1}, {1, 2}, {2, 1}}))
	}
	return q, db
}

// TestSumVerdictMemoized: whether exact SUM is tractable is decided by a
// join-tree enumeration (up to ℓ^(ℓ-2) trees), which the engine's trim cache
// memoizes per ranking — negative verdicts included. A warm run with an
// equal, freshly built ranking must not pay for the enumeration again.
func TestSumVerdictMemoized(t *testing.T) {
	for _, tc := range []struct {
		atoms  int
		u, v   string
		wantOK bool
	}{
		{8, "x3", "x5", true},
		{7, "x0", "x7", false},
	} {
		t.Run(fmt.Sprintf("%d-path/sum(%s,%s)", tc.atoms, tc.u, tc.v), func(t *testing.T) {
			q, db := pathInstance(tc.atoms)
			eng, err := engine.New(q, db)
			if err != nil {
				t.Fatal(err)
			}
			vars := []query.Var{query.Var(tc.u), query.Var(tc.v)}
			start := time.Now()
			_, _, _, enumErr := jointree.BuildAdjacentPair(eng.Query(), vars)
			enumeration := time.Since(start)
			if (enumErr == nil) != tc.wantOK {
				t.Fatalf("BuildAdjacentPair: %v, want tractable=%v", enumErr, tc.wantOK)
			}
			call := func() time.Duration {
				start := time.Now()
				_, _, err := QuantilePrepared(eng, ranking.NewSum(vars...), 0.5, Options{})
				d := time.Since(start)
				if tc.wantOK && err != nil {
					t.Fatal(err)
				}
				if !tc.wantOK && !errors.Is(err, ErrIntractable) {
					t.Fatalf("err = %v, want ErrIntractable", err)
				}
				return d
			}
			call()
			warm := call()
			for i := 0; i < 2; i++ {
				warm = min(warm, call())
			}
			t.Logf("enumeration %v, warm call %v", enumeration, warm)
			if warm > enumeration/4 {
				t.Fatalf("warm call took %v, enumeration alone %v: the verdict was recomputed", warm, enumeration)
			}
		})
	}
}
