package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call recorded by the benchmark around a layer entry
// point. Times are offsets from the recorder's start. Parent 0 means a root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is the
// untraced run: every method is a no-op returning span id 0, so the measured
// code paths are the same with tracing on and off.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span under parent for request req and returns its id.
func (r *Recorder) Begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds were measured elsewhere — a phase split the
// program reports after the call returns, or a request timed from its due
// time — and returns its id.
func (r *Recorder) Add(name string, parent int, req int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans)
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers. Children
// may overlap (concurrent requests under one phase) and may stick out of the
// parent; only the covered part inside the parent is subtracted.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo,hi) ∩ the union of the children's intervals.
func covered(lo, hi time.Duration, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// layerTable aggregates spans by name: total self time and occurrence count.
type layerTable struct {
	self  map[string]time.Duration
	count map[string]int
	// coverage is the share of the measured operations' wall time that
	// spans of program layers account for. The operations are the spans the
	// end-to-end metrics are made of (opSpans) outside the output checks
	// and layer probes; what is not attributed is the self time of the
	// benchmark's own spans inside them (the run, phases, and bench.*:
	// generator lag, collections, idling).
	coverage float64
}

// opSpans are the spans whose durations make up the end-to-end metrics.
var opSpans = map[string]bool{
	"phase.setup": true, "core.answer": true, "engine.update": true, "snap.decode": true,
	"http.request": true, "server.restore": true,
}

// benchSpan reports whether a span times the benchmark's own work rather
// than a layer of the program.
func benchSpan(name string) bool {
	return name == "run" || strings.HasPrefix(name, "phase.") || strings.HasPrefix(name, "bench.")
}

func buildLayerTable(spans []Span) layerTable {
	st := selfTimes(spans)
	t := layerTable{self: map[string]time.Duration{}, count: map[string]int{}}
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		t.self[s.Name] += st[s.ID]
		t.count[s.Name]++
	}
	// op is the outermost measured operation a span lies in (0 if none).
	op := make(map[int]int, len(spans))
	var opOf func(id int) int
	opOf = func(id int) int {
		if v, ok := op[id]; ok {
			return v
		}
		s := byID[id]
		v := 0
		if s.Parent != 0 {
			v = opOf(s.Parent)
		}
		if v == 0 && opSpans[s.Name] && !checked(byID, s) {
			v = id
		}
		op[id] = v
		return v
	}
	var wall, unattributed time.Duration
	for _, s := range spans {
		o := opOf(s.ID)
		if o == 0 {
			continue
		}
		if o == s.ID {
			wall += s.End - s.Start
		}
		if benchSpan(s.Name) {
			unattributed += st[s.ID]
		}
	}
	if wall > 0 {
		t.coverage = 1 - float64(unattributed)/float64(wall)
	}
	return t
}

// checked reports whether s lies under the output checks or the layer
// probes, whose calls time no end-to-end metric.
func checked(byID map[int]Span, s Span) bool {
	for id := s.Parent; id != 0; id = byID[id].Parent {
		if n := byID[id].Name; n == "phase.check" || n == "phase.layers" {
			return true
		}
	}
	return false
}

// perOp is the mean self time in ms of span name per occurrence of span op
// (0 when op never ran).
func (t layerTable) perOp(name, op string) float64 {
	if t.count[op] == 0 {
		return 0
	}
	return ms(t.self[name]) / float64(t.count[op])
}
