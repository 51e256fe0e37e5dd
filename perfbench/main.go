// Command perfbench is the repository's benchmark. One invocation runs
// one workload and measures it end to end (--trace 0) or layer by layer
// (--trace 1):
//
//	bash perfbench/run.sh --workload advise-fig13 --seed 1 --seconds 12 --trace 0
//
// It prints every metric by name with its unit, the correctness checks
// it made, and, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}
//
// It exits non-zero when a correctness check fails. The program under
// test is driven only through its public entry points; layers are timed
// from outside by wrapping the calls into them. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"nose/internal/obs"
)

// config is one invocation's fixed inputs.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"advise-fig13": runFig13,
	"daemon-hotel": runDaemon,
	"sim-bidding":  func(c config, r *report) error { return runSim(c, r, simBidding) },
	"sim-write100": func(c config, r *report) error { return runSim(c, r, simWrite100) },
}

func main() {
	name := flag.String("workload", "", "workload to run: advise-fig13, daemon-hotel, sim-bidding, sim-write100")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 12, "seconds of measured work")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's Chrome trace file")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	fmt.Printf("workload %s seed %d seconds %g trace %v (nproc %d, %s)\n",
		*name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.Version())

	r := newReport(cfg.trace)
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, cfg.seed))
		if err := r.writeTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (%d spans, %d dropped over the tracer's cap)\n", path, r.tracer.Len(), r.tracer.Dropped())
	}
	line, correct, err := r.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's checks, counts and metrics.
type report struct {
	traced    bool
	attempted int64
	failed    int64
	failures  int
	metrics   map[string]metricValue
	tracer    *obs.Tracer
}

func newReport(traced bool) *report {
	r := &report{traced: traced, metrics: map[string]metricValue{}}
	if traced {
		r.tracer = obs.NewTracer()
		// Every per-layer metric is reported on every workload; a layer
		// the workload does not exercise reads 0.
		for _, m := range perLayerMetrics {
			r.metrics[m.name] = metricValue{0, m.unit}
		}
	}
	return r
}

// check records one correctness check; a false ok fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failures++
	}
	line := fmt.Sprintf("check %-40s %s", name, status)
	if format != "" {
		line += "  " + fmt.Sprintf(format, args...)
	}
	fmt.Println(line)
}

// set records a metric; the unit comes from the metric's declaration.
func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metricValue{v, unit}
}

// finish prints the metric table and returns the result line.
func (r *report) finish() (string, bool, error) {
	want := endToEndMetrics
	if r.traced {
		want = perLayerMetrics
	}
	fmt.Println("metrics:")
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			return "", false, fmt.Errorf("metric %s was not measured", m.name)
		}
		note := ""
		if m.deterministic {
			note = "  (deterministic count)"
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", m.name, v.Value, m.unit, note)
	}
	out := resultLine{
		Correct:   r.failures == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		out.Metrics[m.name] = r.metrics[m.name]
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", false, err
	}
	return string(data), out.Correct, nil
}

// writeTrace writes the traced run's spans in Chrome trace format.
func (r *report) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tracer.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable prints a per-layer self-time table for a traced run and
// records its self.* metrics. self holds each layer's self time per
// operation in milliseconds; e2eMs is the traced operation's mean time.
func (r *report) selfTable(self map[string]float64, e2eMs float64) {
	fmt.Printf("self time per operation (traced mean %.4f ms):\n", e2eMs)
	names := make([]string, 0, len(self))
	sum := 0.0
	for name, v := range self {
		names = append(names, name)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		share := 0.0
		if e2eMs > 0 {
			share = self[name] / e2eMs
		}
		fmt.Printf("  %-12s %12.4f ms  %6.1f%%\n", name, self[name], 100*share)
		r.set("self."+name+"_ms", self[name])
	}
	fmt.Printf("  %-12s %12.4f ms  (operation time not covered by a layer)\n", "unaccounted", e2eMs-sum)
}

// overhead records the tracing overhead: the traced operations' mean
// time minus the untraced ones', measured in the same run. Means, like
// the self-time table, so that the two add up.
func (r *report) overhead(untracedMs, tracedMs float64) {
	d := tracedMs - untracedMs
	share := 0.0
	if untracedMs > 0 {
		share = d / untracedMs
	}
	fmt.Printf("tracing overhead: untraced mean %.4f ms, traced mean %.4f ms, overhead %.4f ms (%.1f%%)\n",
		untracedMs, tracedMs, d, 100*share)
	r.set("trace.overhead_ms", d)
	r.set("trace.overhead_share", share)
}

// metricDecl declares one metric of BENCHMARK.json.
type metricDecl struct {
	name, unit string
	// deterministic marks counts that repeat exactly from run to run
	// at one seed, so a later change can be judged on the count rather
	// than on noisy wall time.
	deterministic bool
}

// endToEndMetrics are reported by untraced runs on every workload.
// One operation is one advise (advise-fig13), one job from submit to
// result (daemon-hotel), or one simulated transaction's wall time
// (sim-*).
var endToEndMetrics = []metricDecl{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "op_ms_tail", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "alloc_mb_per_op", unit: "MB"},
	{name: "heap_peak_mb", unit: "MB"},
}

// perLayerMetrics are reported by traced runs on every workload.
var perLayerMetrics = []metricDecl{
	{"lp.pivots", "count", true},
	{"lp.degenerate_ratio", "ratio", true},
	{"lp.refactors", "count", true},
	{"lp.warm_start_ratio", "ratio", true},
	{"bip.solve_ms", "ms", false},
	{"bip.nodes", "count", true},
	{"bip.node_cap_hit", "count", true},
	{"bip.incumbents", "count", true},
	{"planner.ms", "ms", false},
	{"cost.cache_hits", "count", false},
	{"cost.cache_misses", "count", false},
	{"cost.cache_hit_ratio", "ratio", false},
	{"planner.alloc_mb", "MB", false},
	{"enumerator.ms", "ms", false},
	{"enumerator.candidates_emitted", "count", true},
	{"enumerator.candidates_unique", "count", true},
	{"enumerator.unique_ratio", "ratio", true},
	{"search.formulate_ms", "ms", false},
	{"search.plan_variables", "count", true},
	{"search.constraints", "count", true},
	{"search.plans_pruned", "count", true},
	{"search.cuts", "count", true},
	{"search.residual_ms", "ms", false},
	{"nosedsl.parse_ms", "ms", false},
	{"service.wait_ms", "ms", false},
	{"service.overhead_ms", "ms", false},
	{"harness.query_us_p50", "us", false},
	{"executor.queries_per_tx", "count", true},
	{"store.gets_per_tx", "count", true},
	{"store.records_read_per_query", "count", true},
	{"coord.replica_reads_per_read", "count", true},
	{"coord.read_repairs", "count", true},
	{"harness.write_us_p50", "us", false},
	{"executor.writes_per_tx", "count", true},
	{"store.puts_per_tx", "count", true},
	{"store.deletes_per_tx", "count", true},
	{"coord.replica_writes_per_write", "count", true},
	{"coord.hints_queued", "count", true},
	{"load.self_ms", "ms", false},
	{"queue.admitted_per_tx", "count", true},
	{"queue.delay_sim_ms_p50", "ms", true},
	{"queue.max_utilization", "ratio", true},
	{"queue.max_depth", "count", true},
	{"backend.install_s", "s", false},
	{"self.enumerator_ms", "ms", false},
	{"self.planner_ms", "ms", false},
	{"self.search_ms", "ms", false},
	{"self.bip_ms", "ms", false},
	{"self.service_ms", "ms", false},
	{"self.harness_ms", "ms", false},
	{"self.backend_ms", "ms", false},
	{"self.load_ms", "ms", false},
	{"self.bench_ms", "ms", false},
	{"trace.overhead_ms", "ms", false},
	{"trace.overhead_share", "ratio", false},
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, m := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics...) {
		units[m.name] = m.unit
	}
	return units
}()
