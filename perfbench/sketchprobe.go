package main

import (
	"github.com/quantilejoins/qjoin"
)

// probeSketch times the sketch layer of a library plan directly: a cold
// ModeApprox build per ranking (sketch.build), warm answers
// (sketch.answer_us, the median), and the re-certification of the carried
// sketches after one Update (sketch.refresh) — the work a server does per
// delta for every cached plan with a warm sketch.
func probeSketch(c config, r *report, parent int, p qjoin.Plan, fs []*qjoin.Ranking, d *qjoin.Delta) error {
	var answerUS []float64
	for _, f := range fs {
		if _, err := timed(c.rec, "sketch.build", parent, func() error {
			_, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox, Eps: approxEps})
			return err
		}); err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			dur, err := timed(c.rec, "sketch.answer", parent, func() error {
				_, err := p.Answer(f, qjoin.QuantileRequest{Phi: (float64(i) + 0.5) / 64, Mode: qjoin.ModeApprox, Eps: approxEps})
				return err
			})
			if err != nil {
				return err
			}
			answerUS = append(answerUS, ms(dur)*1000)
		}
	}
	r.layer["sketch.answer_us"] = median(answerUS)
	var next qjoin.Plan
	if _, err := timed(c.rec, "engine.update", parent, func() (err error) { next, err = p.UpdatePlan(d); return err }); err != nil {
		return err
	}
	_, err := timed(c.rec, "sketch.refresh", parent, next.WarmSketches)
	return err
}

// storeSketch writes the sketch build and refresh metrics.
func storeSketch(r *report, t layerTable) {
	r.layer["sketch.build_ms"] = t.perOp("sketch.build", "sketch.build")
	r.layer["sketch.refresh_ms"] = t.perOp("sketch.refresh", "sketch.refresh")
}
