// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives the program through its public
// calls (the qjoin API, exported functions of internal packages, and HTTP to
// the server handler on a loopback listener), checks every output, and
// prints the workload's metrics. The last line of standard output is one
// JSON object: the end-to-end metrics with -trace 0, the per-layer metrics
// of a traced run with -trace 1. LAYERS.md maps every metric to the layer
// it measures and the workloads it should move on.
//
//	go build -o perfbench . && ./perfbench --workload exact-sum --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"exact-sum":     runExactSum,
	"cyclic-update": runCyclicUpdate,
	"serve-sharded": runServeSharded,
}

// Units of every metric the benchmark prints.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"answer_p50_ms": "ms",
	"answer_p90_ms": "ms",
	"answers_per_s": "1/s",
	"update_p50_ms": "ms",
	"update_p90_ms": "ms",
	"approx_p50_ms": "ms",
	"approx_p90_ms": "ms",
	"restore_ms":    "ms",
	"plan_heap_mb":  "MiB",
}

// gatedE2E are the end-to-end metrics every untraced run must report (the
// ones BENCHMARK.json bounds). update_p90_ms, approx_p50_ms and
// approx_p90_ms are printed but not gated: serve-sharded has too few deltas
// for an update p90, and the sketch tier's latencies did not repeat within
// the widest bound over ten seeds (STEADINESS.md).
var gatedE2E = []string{
	"setup_s", "answer_p50_ms", "answer_p90_ms", "answers_per_s", "update_p50_ms",
	"restore_ms", "plan_heap_mb",
}

var layerUnits = map[string]string{
	"engine.prepare_ms": "ms", "relation.dedup_ms": "ms", "jointree.build_ms": "ms",
	"jointree.exec_ms": "ms", "yannakakis.count_ms": "ms",
	"core.iterations": "count", "core.pivot_ms": "ms", "core.trim_ms": "ms", "core.derive_ms": "ms",
	"core.count_ms": "ms", "core.terminal_ms": "ms", "core.materialized": "count", "core.trim_growth": "ratio",
	"decomp.decompose_ms": "ms", "decomp.materialize_ms": "ms", "decomp.bag_rows": "count",
	"decomp.rematerialize_ms": "ms", "decomp.rematerialized_bags": "count", "engine.update_ms": "ms",
	"parallel.speedup": "ratio",
	"shard.skew":       "ratio", "shard.touched": "count",
	"sketch.build_ms": "ms", "sketch.refresh_ms": "ms", "sketch.answer_us": "us", "sketch.fallback_ratio": "ratio",
	"snap.encode_ms": "ms", "snap.decode_ms": "ms", "snap.bytes_per_tuple": "B/tuple",
	"snap.wal_append_ms": "ms", "snap.replay_ms": "ms",
	"server.overhead_ms": "ms", "server.cache_hit_ratio": "ratio", "server.migrations_per_delta": "count",
	"server.rejected":   "count",
	"bench.late_p90_ms": "ms", "bench.trace_overhead_pct": "%", "bench.span_coverage_pct": "%",
}

// primary is the latency each workload's trace overhead is judged on: the
// operation its loop is made of.
var primary = map[string]string{
	"exact-sum":     "answer_p50_ms",
	"cyclic-update": "update_p50_ms",
	"serve-sharded": "approx_p50_ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: exact-sum, cyclic-update or serve-sharded")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	code, err := runMain(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func runMain(name string, seed int64, seconds float64, trace bool) (int, error) {
	run, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	c := config{seed: seed, seconds: seconds, setupReps: setupReps[name], roundSetups: roundSetups[name], dir: dir}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, trace)

	var r *report
	if !trace {
		r = newReport()
		if err := run(c, r); err != nil {
			return 1, err
		}
	} else {
		// Two halves: untraced, then traced with the same settings. The
		// difference in the primary latency is the tracing overhead.
		c.seconds, c.setupReps = seconds/2, 1
		plain := newReport()
		if err := run(c, plain); err != nil {
			return 1, err
		}
		c.rec = NewRecorder()
		r = newReport()
		if err := run(c, r); err != nil {
			return 1, err
		}
		r.attempted += plain.attempted
		r.failed += plain.failed
		r.mismatches += plain.mismatches
		r.wrong = append(r.wrong, plain.wrong...)
		p := primary[name]
		r.layer["bench.trace_overhead_pct"] = 100 * (r.e2e[p]/plain.e2e[p] - 1)
		t := buildLayerTable(c.rec.Spans())
		r.layer["bench.span_coverage_pct"] = 100 * t.coverage
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := c.rec.WriteFile(path); err != nil {
			return 1, err
		}
		fmt.Printf("# spans: %d written to %s\n", len(c.rec.Spans()), path)
	}
	return emit(r, trace)
}

// setupReps is how many times each workload sets up before its loop in an
// untraced run, and roundSetups how many more times in each of its rounds.
var (
	setupReps   = map[string]int{"exact-sum": 3, "cyclic-update": 3, "serve-sharded": 3}
	roundSetups = map[string]int{"exact-sum": 10, "cyclic-update": 3}
)

// minCoverage is the share of the measured operations' wall time that
// layer spans must account for in a traced run.
const minCoverage = 90

// emit prints the report, then the result line. A wrong answer, a failed
// operation, a missing metric or, in a traced run, span coverage below
// minCoverage exits 1.
func emit(r *report, trace bool) (int, error) {
	for _, line := range r.info {
		fmt.Println("#", line)
	}
	for _, w := range r.wrong {
		fmt.Println("# FAILED", w)
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	if trace {
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{r.layer[name], unit}
		}
	} else {
		for name, v := range r.e2e {
			fmt.Printf("%-16s %12.4f %s\n", name, v, e2eUnits[name])
		}
		for _, name := range gatedE2E {
			v, ok := r.e2e[name]
			if !ok || math.IsNaN(v) || v <= 0 {
				missing = append(missing, name)
				continue
			}
			res.Metrics[name] = metric{v, e2eUnits[name]}
		}
	}
	if trace {
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	fmt.Printf("%-16s %12.4f ratio (attempted %d, failed %d)\n", "error_rate", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted, r.failed)
	res.Correct = r.mismatches == 0
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if len(missing) > 0 {
		return 1, fmt.Errorf("run could not report %v (too few samples for a tail, or nothing measured)", missing)
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d wrong answers", r.mismatches)
	}
	if r.failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
	}
	if cov := r.layer["bench.span_coverage_pct"]; trace && cov < minCoverage {
		return 1, fmt.Errorf("spans account for %.1f%% of the measured operations' wall time, below %d%%", cov, minCoverage)
	}
	return 0, nil
}
