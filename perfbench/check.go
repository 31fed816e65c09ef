package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/ranking"
)

// checkWeight reports an error unless got equals the reference weight want
// under ranking f.
func checkWeight(f *qjoin.Ranking, got, want qjoin.Weight) error {
	if f.Compare(got, want) != 0 {
		return fmt.Errorf("weight %v, reference %v", got, want)
	}
	return nil
}

// refWeights is the sorted weight list of every answer of one plan
// generation under one ranking: the reference the serving checks compare
// exact answers and sketch ranks against.
type refWeights struct {
	f *qjoin.Ranking
	w []qjoin.Weight
}

// sortedWeights materializes the answers of p and sorts their weights under
// each ranking — a path independent of the pivot loop and of the sketches.
func sortedWeights(p *qjoin.Prepared, fs []*qjoin.Ranking) ([]refWeights, error) {
	out := make([]refWeights, len(fs))
	ws := make([]*ranking.AnswerWeigher, len(fs))
	for i, f := range fs {
		out[i].f = f
		ws[i] = ranking.NewAnswerWeigher(f, p.Vars())
	}
	err := p.Enumerate(func(_ []qjoin.Var, vals []qjoin.Value) bool {
		for i := range fs {
			w := ws[i].WeightOf(vals)
			if len(w.Vec) > 0 {
				w.Vec = append([]int64(nil), w.Vec...)
			}
			out[i].w = append(out[i].w, w)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		r := out[i]
		sort.Slice(r.w, func(a, b int) bool { return r.f.Compare(r.w[a], r.w[b]) < 0 })
	}
	return out, nil
}

// index is the selection rank of φ among the reference answers.
func (r refWeights) index(phi float64) int {
	return int(core.Index(counting.FromInt(len(r.w)), phi).Float64())
}

// checkExact verifies an exact answer's weight against the reference.
func (r refWeights) checkExact(w qjoin.Weight, phi float64) error {
	if len(r.w) == 0 {
		return fmt.Errorf("no reference answers")
	}
	return checkWeight(r.f, w, r.w[r.index(phi)])
}

// checkApprox verifies a sketch answer: its certified bound is within the
// requested eps, and some answer of its weight sits within bound·N ranks of
// the requested rank (ties make a weight occupy a range of ranks).
func (r refWeights) checkApprox(w qjoin.Weight, phi, bound, eps float64) error {
	if bound > eps*(1+1e-9) {
		return fmt.Errorf("error bound %v exceeds requested eps %v", bound, eps)
	}
	n := len(r.w)
	lo := sort.Search(n, func(i int) bool { return r.f.Compare(r.w[i], w) >= 0 })
	hi := sort.Search(n, func(i int) bool { return r.f.Compare(r.w[i], w) > 0 })
	if lo == hi {
		return fmt.Errorf("weight %v is not the weight of any answer", w)
	}
	k := r.index(phi)
	slack := int(math.Ceil(bound*float64(n))) + 1
	if k+slack < lo || k-slack > hi-1 {
		return fmt.Errorf("weight %v holds ranks [%d,%d], requested rank %d ± %d", w, lo, hi-1, k, slack)
	}
	return nil
}
