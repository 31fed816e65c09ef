package qjoin

// Approximate-first serving: the unified mode-aware query surface.
//
// Prepared.Answer collapses the quantile-family entry points into one
// request struct with an explicit Mode, and adds the sketch tier: a
// mergeable rank-anchor summary (internal/sketch.Summary) built lazily per
// ranking function and engine, kept current across Update via cheap
// per-anchor re-certification, and merged across shards on demand.
// mode=approx answers from the summary in O(entries) without touching the
// pivot loop; mode=auto serves from the summary only when the requested ε is
// certified and falls back to the exact engine — byte-identical to the
// legacy path — otherwise.
//
// Summaries are keyed by ranking identity (ranking.Key, the same key as the
// engine's trim cache): any Ranking equal in aggregate and variables finds
// the summary, whether the caller reuses one value, builds a fresh one per
// call, or LoadPlan parsed it from a snapshot. A ranking with a custom Weight
// func is identified by its pointer.

import (
	"maps"
	"math/rand"

	"github.com/quantilejoins/qjoin/internal/core"
	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/sketch"
)

// Mode selects the answering tier of Plan.Answer.
type Mode int

const (
	// ModeAuto (the zero value) is the two-tier planner: with Eps = 0 it is
	// exact; with Eps > 0 it serves from the sketch when the sketch
	// certifies a rank error within Eps·|Q(D)| for the requested rank, and
	// falls back to the exact engine (with the same Eps, for intractable
	// SUM) otherwise.
	ModeAuto Mode = iota
	// ModeExact forces the exact pivot-loop engine (with Eps > 0 this is
	// the deterministic (φ±ε) engine path for intractable SUM — the legacy
	// ApproxQuantile behavior).
	ModeExact
	// ModeApprox always answers from the sketch summary, building it at
	// resolution min(DefaultSketchEps, Eps/2) if needed, and reports the
	// achieved certified bound. It never needs Eps, even for intractable
	// SUM.
	ModeApprox
	// ModeSample uses the randomized sampling estimator of Section 3.1
	// (requires Eps, Delta and ideally a caller-supplied Rand; unsharded
	// plans only).
	ModeSample
)

// String names the mode as the wire protocol spells it.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	case ModeSample:
		return "sample"
	}
	return "invalid"
}

// QuantileRequest is the unified quantile request of Plan.Answer.
type QuantileRequest struct {
	// Phi is the quantile fraction in [0, 1].
	Phi float64
	// Eps is the rank-error budget as a fraction of |Q(D)|. 0 means exact.
	Eps float64
	// Delta is the failure probability for ModeSample.
	Delta float64
	// Mode selects the answering tier; the zero value is ModeAuto.
	Mode Mode
	// Rand is the random generator for ModeSample. When nil a fixed-seed
	// generator is used, making the call deterministic but correlated
	// across calls; supply one per goroutine for real randomization.
	Rand *rand.Rand
}

// Answer sources, reported in Answer.Source.
const (
	SourceExact  = core.SourceExact
	SourceSketch = core.SourceSketch
	SourceSample = core.SourceSample
)

// DefaultSketchEps is the anchor-grid resolution sketch summaries are built
// at unless a ModeApprox request asks for finer (see core.DefaultSketchEps).
const DefaultSketchEps = core.DefaultSketchEps

// sketchEntry is one ranking's sketch state: the ranking it was built for,
// one summary per engine, the engine each was certified against, and their
// merge (the one part itself on a one-engine plan). An entry is stale for a
// plan whose engine vector differs: Update replaces exactly the engines a
// delta touched, so pointer inequality identifies the parts to re-certify,
// and untouched parts carry over with no work. Entries are immutable once
// stored.
type sketchEntry struct {
	rank   *Ranking
	parts  []*sketch.Summary
	engs   []*engine.Engine
	merged *sketch.Summary
}

// resCovers reports whether a summary built at resolution have serves a
// request for resolution want (finer-or-equal, with float slack).
func resCovers(have, want float64) bool { return have <= want*(1+1e-9) }

// Answer is the unified quantile entry point: one request struct selects the
// tier (exact engine, sketch summary, or sampling), and the answer reports
// the tier that produced it (Source) with a certified rank-error bound
// (ErrorBound). See Mode for the per-mode contracts; ModeSample needs a
// one-engine plan.
func (p *Prepared) Answer(f *Ranking, req QuantileRequest, opts ...Options) (*Answer, error) {
	a, _, err := p.AnswerStats(f, req, opts...)
	return a, err
}

// AnswerStats is Answer returning the run statistics of the exact engine
// when it ran; sketch and sample answers carry nil stats (no pivot loop ran).
func (p *Prepared) AnswerStats(f *Ranking, req QuantileRequest, opts ...Options) (*Answer, *RunStats, error) {
	o := p.opt(opts)
	switch req.Mode {
	case ModeExact:
		return exactAnswer(p.engs, f, req, o)
	case ModeSample:
		if len(p.engs) > 1 {
			return nil, nil, argErrorf("mode", "sampling is not supported on sharded plans")
		}
		a, err := core.SampleQuantilePrepared(p.engs[0], f, req.Phi, req.Eps, req.Delta, sampleRand(req))
		if err != nil {
			return nil, nil, err
		}
		a.Source = SourceSample
		a.ErrorBound = req.Eps
		return a, nil, nil
	case ModeApprox:
		if err := ValidatePhi(req.Phi); err != nil {
			return nil, nil, err
		}
		sum, err := p.summaryFor(f, approxRes(req.Eps), o)
		if err != nil {
			return nil, nil, err
		}
		a, err := sketchAnswer(sum, p.Vars(), req.Phi)
		return a, nil, err
	default: // ModeAuto
		if req.Eps <= 0 {
			return exactAnswer(p.engs, f, req, o)
		}
		if err := ValidatePhi(req.Phi); err != nil {
			return nil, nil, err
		}
		sum, err := p.autoSummary(f, req.Eps, o)
		if err != nil {
			return nil, nil, err
		}
		if a := serveWithin(sum, p.Vars(), req.Phi, req.Eps); a != nil {
			return a, nil, nil
		}
		return exactAnswer(p.engs, f, req, o)
	}
}

// WarmSketches re-certifies every summary the plan carries that went stale
// through Update (and no others — rankings never queried approximately cost
// nothing; on a sharded plan only the parts of rebuilt shards do work). The
// serving layer calls this during plan-cache migration so post-delta sketch
// queries stay O(entries) cache hits.
func (p *Prepared) WarmSketches() error {
	p.skMu.Lock()
	var stale []*sketchEntry
	for _, e := range p.sketches {
		if !sameEngines(e.engs, p.engs) {
			stale = append(stale, e)
		}
	}
	p.skMu.Unlock()
	for _, e := range stale {
		if _, err := p.summaryFor(e.rank, e.merged.Res, p.opts); err != nil {
			return err
		}
	}
	return nil
}

// summaryFor returns the plan's merged summary for f at resolution res (or
// finer), building, re-certifying and re-merging only what the engine
// vector says is out of date, and caching the result.
func (p *Prepared) summaryFor(f *Ranking, res float64, o Options) (*sketch.Summary, error) {
	key := f.Key()
	p.skMu.Lock()
	e := p.sketches[key]
	p.skMu.Unlock()
	if e != nil && resCovers(e.merged.Res, res) && sameEngines(e.engs, p.engs) {
		return e.merged, nil
	}
	reuse := e != nil && resCovers(e.merged.Res, res) && len(e.engs) == len(p.engs)
	buildRes := res
	if reuse {
		buildRes = e.merged.Res
	}
	parts := make([]*sketch.Summary, len(p.engs))
	for i, eng := range p.engs {
		var err error
		switch {
		case reuse && e.engs[i] == eng:
			parts[i] = e.parts[i] // untouched engine: summary carries over
		case reuse:
			// Carried over a delta: two trim+count passes per anchor
			// re-certify the windows at the old (possibly finer) resolution.
			if parts[i], err = core.RefreshSummary(eng, f, e.parts[i], o); err != nil {
				return nil, err
			}
			if parts[i] == nil { // every anchor died: rebuild from scratch
				parts[i], err = core.BuildSummary(eng, f, buildRes, o)
			}
		default:
			parts[i], err = core.BuildSummary(eng, f, buildRes, o)
		}
		if err != nil {
			return nil, err
		}
	}
	next := newSketchEntry(parts, p.engs, f)
	p.skMu.Lock()
	if p.sketches == nil {
		p.sketches = make(map[ranking.Key]*sketchEntry)
	}
	// Racing builds store equivalent summaries; keep the finest fresh one.
	if cur := p.sketches[key]; cur == nil || !sameEngines(cur.engs, p.engs) || resCovers(buildRes, cur.merged.Res) {
		p.sketches[key] = next
	}
	p.skMu.Unlock()
	return next.merged, nil
}

// newSketchEntry assembles an entry, merging the parts across shards. Merge
// is deterministic, so a snapshot loader rebuilds the merge the saver held.
func newSketchEntry(parts []*sketch.Summary, engs []*engine.Engine, f *Ranking) *sketchEntry {
	merged := parts[0]
	if len(parts) > 1 {
		merged = sketch.Merge(parts, f.Compare)
	}
	return &sketchEntry{rank: f, parts: parts, engs: engs, merged: merged}
}

// autoSummary is the summary ModeAuto may serve from: any already-built
// summary (re-certified if stale), or a fresh default-resolution build when
// the requested ε is loose enough that the default grid can plausibly
// certify it. ModeAuto never builds finer than DefaultSketchEps — tighter
// requests belong to the exact tier (or an explicit ModeApprox).
func (p *Prepared) autoSummary(f *Ranking, eps float64, o Options) (*sketch.Summary, error) {
	p.skMu.Lock()
	e := p.sketches[f.Key()]
	p.skMu.Unlock()
	if e == nil && eps < core.DefaultSketchEps {
		return nil, nil
	}
	res := core.DefaultSketchEps
	if e != nil {
		res = e.merged.Res
	}
	return p.summaryFor(f, res, o)
}

// carrySketches hands the receiver's sketch entries to the plan derived by
// Update. Entries are immutable once stored, so sharing them is safe; the
// derived plan's engine vector identifies the stale parts on first use.
func (p *Prepared) carrySketches() map[ranking.Key]*sketchEntry {
	p.skMu.Lock()
	defer p.skMu.Unlock()
	return maps.Clone(p.sketches)
}

func sameEngines(a, b []*engine.Engine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// approxRes is the build resolution for a ModeApprox request: the default
// grid, or twice as fine as the requested ε so the mid-gap certified error
// (~res/2 of the rank range per anchor gap) meets it.
func approxRes(eps float64) float64 {
	if eps > 0 && eps/2 < core.DefaultSketchEps {
		return eps / 2
	}
	return core.DefaultSketchEps
}

// exactAnswer is the shared exact-tier body: the legacy engine path plus
// Source/ErrorBound tagging. req.Eps > 0 overrides the Options' Epsilon
// (the legacy ApproxQuantile contract); the reported bound is the effective
// ε when the run actually went through lossy trims, 0 otherwise.
func exactAnswer(engs []*engine.Engine, f *Ranking, req QuantileRequest, o Options) (*Answer, *RunStats, error) {
	if req.Eps > 0 {
		o.Epsilon = req.Eps
	}
	a, stats, err := core.QuantileShards(engs, f, req.Phi, o)
	if err != nil {
		return nil, stats, err
	}
	a.Source = SourceExact
	if stats != nil && stats.Lossy {
		a.ErrorBound = o.Epsilon
	}
	return a, stats, nil
}

// sketchAnswer serves φ from a summary: the anchor with the smallest
// certified error for rank Index(N, φ), tagged with that bound.
func sketchAnswer(sum *sketch.Summary, vars []Var, phi float64) (*Answer, error) {
	if sum == nil || sum.N.IsZero() {
		return nil, ErrNoAnswers
	}
	k := core.Index(sum.N, phi)
	e, errAbs, ok := sum.Query(k)
	if !ok {
		return nil, ErrNoAnswers
	}
	return entryAnswer(sum, vars, e, errAbs), nil
}

// serveWithin is the ModeAuto certification check: it returns the sketch
// answer only when the anchor's certified rank error for the requested rank
// is within ⌊eps·N⌋, nil (fall back to exact) otherwise.
func serveWithin(sum *sketch.Summary, vars []Var, phi, eps float64) *Answer {
	if sum == nil || sum.N.IsZero() || len(sum.Entries) == 0 {
		return nil
	}
	k := core.Index(sum.N, phi)
	e, errAbs, ok := sum.Query(k)
	if !ok || counting.FloorMulFloat(sum.N, eps).Less(errAbs) {
		return nil
	}
	return entryAnswer(sum, vars, e, errAbs)
}

func entryAnswer(sum *sketch.Summary, vars []Var, e sketch.Entry, errAbs counting.Count) *Answer {
	w := e.Weight
	if len(w.Vec) > 0 {
		w.Vec = append([]int64(nil), w.Vec...)
	}
	bound := 0.0
	if !errAbs.IsZero() {
		bound = errAbs.Float64() / sum.N.Float64()
	}
	return &Answer{
		Vars:       vars,
		Values:     append([]Value(nil), e.Values...),
		Weight:     w,
		Source:     SourceSketch,
		ErrorBound: bound,
	}
}

// sampleRand resolves the request's generator (fixed seed when absent; see
// QuantileRequest.Rand).
func sampleRand(req QuantileRequest) *rand.Rand {
	if req.Rand != nil {
		return req.Rand
	}
	return rand.New(rand.NewSource(1))
}
