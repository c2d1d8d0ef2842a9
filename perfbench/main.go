// Command perfbench is the repository's benchmark: it drives the suite's
// public entry points in-process — campaign.Run, the fabric coordinator
// and workers, caliper.ReadDir, thicket and analysis.Session — over one
// of three seeded workloads, checks the answers, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload host-exec --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
// and untraced passes, reports the per-layer metrics, and writes the
// traced passes' spans as a Chrome trace under .bench_build/. NOTES.md
// explains the workloads, the metrics and what each layer metric is
// predicted to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"spec_p50_ms", "ms"},
	{"spec_p95_ms", "ms"},
	{"analyze_s", "s"},
	{"figures_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"raja_base_ratio_geomean", "ratio"},
	{"raja.dispatches", "count"},
	{"raja.spawn_fallbacks", "count"},
	{"raja.steals", "count"},
	{"raja.busy_s", "s"},
	{"raja.omp_seq_ratio_geomean", "ratio"},
	{"kernels.setup_s", "s"},
	{"kernels.run_s.Base_Seq", "s"},
	{"kernels.run_s.RAJA_Seq", "s"},
	{"kernels.run_s.RAJA_OpenMP", "s"},
	{"kernels.checksum_s", "s"},
	{"kernels.teardown_s", "s"},
	{"kernels.ratio.Algorithm", "ratio"},
	{"kernels.ratio.Apps", "ratio"},
	{"kernels.ratio.Basic", "ratio"},
	{"kernels.ratio.Comm", "ratio"},
	{"kernels.ratio.Lcals", "ratio"},
	{"kernels.ratio.Polybench", "ratio"},
	{"kernels.ratio.Stream", "ratio"},
	{"kernels.ratio.Basic_INDEXLIST", "ratio"},
	{"kernels.ratio.Algorithm_SCAN", "ratio"},
	{"kernels.ratio.Algorithm_SORTPAIRS", "ratio"},
	{"kernels.ratio.Basic_MULTI_REDUCE", "ratio"},
	{"kernels.ratio.Basic_REDUCE3_INT", "ratio"},
	{"kernels.bytes_computed", "bytes"},
	{"kernels.flops", "count"},
	{"kernels.gbs_computed.RAJA_Seq", "GB/s"},
	{"suite.run_s", "s"},
	{"suite.overhead_s", "s"},
	{"suite.run_ms_p50", "ms"},
	{"model.tma_us", "us"},
	{"model.gpusim_us", "us"},
	{"model.calls", "count"},
	{"caliper.write_ms_p50", "ms"},
	{"caliper.read_ms_p50", "ms"},
	{"caliper.profile_kb", "KiB"},
	{"campaign.submit_ms_p50", "ms"},
	{"campaign.submit_ms_p95", "ms"},
	{"campaign.bookkeeping_ms_p50", "ms"},
	{"campaign.wal_append_us_p50", "us"},
	{"campaign.wal.appends", "count"},
	{"campaign.idle_frac", "fraction"},
	{"campaign.retries", "count"},
	{"fabric.rendezvous_s", "s"},
	{"fabric.submit_ms_p50", "ms"},
	{"fabric.submit_ms_p95", "ms"},
	{"fabric.overhead_ms_p50", "ms"},
	{"fabric.assigned", "count"},
	{"fabric.resends", "count"},
	{"fabric.steals", "count"},
	{"fabric.redispatches", "count"},
	{"fabric.hedges", "count"},
	{"fabric.useful_ratio", "ratio"},
	{"fabric.finalize_ms", "ms"},
	{"thicket.read_s", "s"},
	{"thicket.compose_s", "s"},
	{"thicket.sweep_ms", "ms"},
	{"thicket.query_cached_us", "us"},
	{"thicket.speedup_ms", "ms"},
	{"thicket.cache_hit_ratio", "ratio"},
	{"analysis.collect_s", "s"},
	{"analysis.cluster_ms", "ms"},
	{"analysis.tables_ms", "ms"},
	{"analysis.summary_ms", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"self_s.setup", "s"},
	{"self_s.campaign", "s"},
	{"self_s.fabric", "s"},
	{"self_s.suite", "s"},
	{"self_s.analysis", "s"},
	{"self_s.caliper", "s"},
	{"self_s.thicket", "s"},
	{"self_s.cluster", "s"},
	{"check.checksum_mismatches", "count"},
	{"check.model_mismatches", "count"},
	{"check.tma_invariant_violations", "count"},
	{"check.summary_claims_failed", "count"},
	{"check.values_checked", "count"},
	{"check.wrong_answer_frac", "fraction"},
	{"check.failed_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
}

// minIterations keeps a short window from producing a single sample, and
// gives a traced run at least one traced and one untraced pass.
const minIterations = 2

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a run's outcome: the JSON result plus what the human-readable
// lines before it show.
type report struct {
	result
	passes    []*iteration
	samples   map[string]int // samples behind each metric
	wrongFrac float64
	failFrac  float64
	checks    checks
}

func main() { os.Exit(mainCode()) }

func mainCode() int {
	if worker, err := workerMain(); worker {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	var (
		workload = flag.String("workload", "", "workload: host-exec, model-sweep or fabric-sweep")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 45, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds non-negative")
		return 2
	}
	cfg := defaultConfig()
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace = *workload, uint64(*seed), float64(*seconds), *trace == 1

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if cfg.Dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tracePath := filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-seed%d.json", cfg.Workload, *seed))

	rep, err := run(context.Background(), cfg, tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.Trace {
		fmt.Println("chrome trace:", tracePath)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// run executes one benchmark run: an untimed reference (fabric-sweep
// only), one discarded warm-up pass, then passes until the window closes.
func run(ctx context.Context, cfg config, tracePath string) (*report, error) {
	b := &bench{cfg: cfg}
	if cfg.Trace {
		b.spans = newSpanLog()
	}
	if cfg.Workload == fabricSweep {
		if err := b.reference(ctx); err != nil {
			return nil, err
		}
	}
	if _, err := b.iterate(ctx, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// max_rss_mb is the peak of the measured passes, not of the reference
	// or the warm-up.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var its []*iteration
	start := time.Now()
	for k := 0; len(its) < minIterations || time.Since(start).Seconds() < cfg.Seconds; k++ {
		it, err := b.iterate(ctx, cfg.Trace && k%2 == 1)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	peakKB, err := peakRSSKB()
	if err != nil {
		return nil, err
	}
	rep := summarize(cfg, its, peakKB)
	if cfg.Trace {
		if err := b.spans.writeChromeTrace(tracePath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// resetPeakRSS returns the freed heap to the kernel and resets the
// process's peak resident set size (VmHWM) to its current size.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSKB reads the process's peak resident set size (VmHWM) in KiB.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// summarize folds the passes into the reported metrics: medians over
// passes, also of per-pass spec-latency percentiles, and over the analyze
// repeats of the untraced passes.
// peakKB is the benchmark process's peak RSS over the measured passes.
func summarize(cfg config, its []*iteration, peakKB int64) *report {
	rep := &report{passes: its, samples: map[string]int{}}
	rep.Metrics = map[string]metricValue{}
	var untraced, traced []*iteration
	for _, it := range its {
		rep.Attempted += it.Attempted
		rep.Failed += it.Failed
		rep.checks.add(it.Checks)
		if it.Traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if rep.checks.Checked > 0 {
		rep.wrongFrac = float64(rep.checks.wrong()) / float64(rep.checks.Checked)
	}
	if rep.Attempted > 0 {
		rep.failFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Correct = rep.checks.wrong() == 0

	pick := func(set []*iteration, f func(*iteration) float64) []float64 {
		out := make([]float64, len(set))
		for i, it := range set {
			out[i] = f(it)
		}
		return out
	}
	put := func(defs []metricDef, name string, v float64, n int) {
		for _, d := range defs {
			if d.Name == name {
				rep.Metrics[name] = metricValue{Value: finite(v), Unit: d.Unit}
				rep.samples[name] = n
				return
			}
		}
		panic("perfbench: unlisted metric " + name)
	}

	if !cfg.Trace {
		n := len(untraced)
		var setup []float64
		for _, it := range untraced {
			setup = append(append(setup, it.Setup), it.SetupProbes...)
		}
		put(endToEnd, "setup_s", median(setup), len(setup))
		put(endToEnd, "campaign_s", median(pick(untraced, func(it *iteration) float64 { return it.Campaign })), n)
		// Spec latency percentiles are taken per pass and then the median
		// over passes, so a burst of host slowness that delays the few
		// specs of one pass does not set the run's tail.
		var specs int
		for _, it := range untraced {
			specs += len(it.SpecMS)
		}
		put(endToEnd, "spec_p50_ms", median(pick(untraced, func(it *iteration) float64 { return quantile(it.SpecMS, 0.5) })), specs)
		put(endToEnd, "spec_p95_ms", median(pick(untraced, func(it *iteration) float64 { return quantile(it.SpecMS, 0.95) })), specs)
		// analyze_s is the median repeat on the sweeps. On host-exec it is
		// the fastest: there the step takes a few milliseconds, ReadDir
		// decodes the three profiles on two goroutines, and how soon the
		// host runs the second one moves the median by half from one
		// minute to the next. The host only ever adds to a repeat's time
		// (see NOTES.md).
		var reps []float64
		for _, it := range untraced {
			reps = append(reps, it.AnalyzeRepeats...)
		}
		q := 0.5
		if cfg.Workload == hostExec {
			q = 0
		}
		put(endToEnd, "analyze_s", quantile(reps, q), len(reps))
		put(endToEnd, "figures_s", median(pick(untraced, func(it *iteration) float64 { return it.Figures })), n)
		var workerKB int64
		for _, it := range untraced {
			workerKB = max(workerKB, it.WorkerRSSKB)
		}
		put(endToEnd, "max_rss_mb", float64(peakKB+workerKB)/1024, 1)
		return rep
	}

	n := len(traced)
	for _, d := range perLayer {
		put(perLayer, d.Name, median(pick(traced, func(it *iteration) float64 { return it.Layer[d.Name] })), n)
	}
	// Kernel wall time is what the ratio measures, so it comes from the
	// untraced passes.
	if cfg.Workload == hostExec {
		put(perLayer, "raja_base_ratio_geomean",
			median(pick(untraced, func(it *iteration) float64 { return it.Ratio })), len(untraced))
	}
	c := rep.checks
	put(perLayer, "check.checksum_mismatches", float64(c.ChecksumMismatches), len(its))
	put(perLayer, "check.model_mismatches", float64(c.ModelMismatches), len(its))
	put(perLayer, "check.tma_invariant_violations", float64(c.TMAViolations), len(its))
	put(perLayer, "check.summary_claims_failed", float64(c.SummaryFailed), len(its))
	put(perLayer, "check.values_checked", float64(c.Checked), len(its))
	put(perLayer, "check.wrong_answer_frac", rep.wrongFrac, len(its))
	put(perLayer, "check.failed_frac", rep.failFrac, len(its))
	wall := func(it *iteration) float64 { return it.wall() }
	if u := median(pick(untraced, wall)); u > 0 {
		put(perLayer, "trace_overhead_frac", median(pick(traced, wall))/u-1, len(its))
	}
	return rep
}

// printReport writes one human-readable line per measured pass and per
// metric, then the JSON result as the last line.
func printReport(w io.Writer, rep *report) error {
	for k, it := range rep.passes {
		fmt.Fprintf(w, "pass %d: traced=%v setup %.6fs campaign %.4fs spec p50 %.2fms p95 %.2fms analyze %.5fs (%d repeats) figures %.4fs\n",
			k, it.Traced, it.Setup, it.Campaign, quantile(it.SpecMS, 0.5), quantile(it.SpecMS, 0.95),
			it.Analyze, len(it.AnalyzeRepeats), it.Figures)
	}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, d := range defs {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %14.6g %-9s n=%d\n", d.Name, v.Value, v.Unit, rep.samples[d.Name])
		}
	}
	fmt.Fprintf(w, "%-36s %14.6g %-9s (%d of %d checked values failed)\n",
		"wrong_answer_frac", rep.wrongFrac, "fraction", rep.checks.wrong(), rep.checks.Checked)
	fmt.Fprintf(w, "%-36s %14.6g %-9s (%d of %d specs)\n",
		"failed_frac", rep.failFrac, "fraction", rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
