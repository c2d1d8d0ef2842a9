package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rajaperf/internal/caliper"
)

// TestMain lets the test binary serve as a fabric worker, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if worker, err := workerMain(); worker {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks
// against the metric tables.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit,
// that the answers check out, and that the traced run writes a Chrome
// trace whose spec spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := defaultConfig()
				cfg.Workload, cfg.Seed, cfg.Trace, cfg.Dir = w, 7, trace, t.TempDir()
				cfg.HostSize, cfg.SweepSizes = 1024, 1
				tracePath := filepath.Join(cfg.Dir, "trace.json")
				rep, err := run(context.Background(), cfg, tracePath)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printReport(&out, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", got.Correct, got.Failed, got.Attempted)
				}
				want := bj.EndToEnd
				if trace {
					want = bj.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					case !trace && !(v.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if trace {
					checkTrace(t, tracePath)
				}
			})
		}
	}
}

// checkTrace checks that the trace parses and that some spec's suite span
// lies inside that spec's Submit span.
func checkTrace(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := caliper.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	submit := map[string]caliper.TraceEvent{}
	for _, ev := range evs {
		if strings.HasSuffix(ev.Name, ".Submit") {
			submit[fmt.Sprint(ev.Args["spec"])] = ev
		}
	}
	for _, ev := range evs {
		if ev.Name != "suite.RunContext" {
			continue
		}
		s, ok := submit[fmt.Sprint(ev.Args["spec"])]
		if ok && ev.Ts >= s.Ts && ev.Ts+ev.Dur <= s.Ts+s.Dur {
			return
		}
	}
	t.Errorf("no suite.RunContext span inside its spec's Submit span among %d events", len(evs))
}

// testProfile is a one-kernel profile as a campaign records it.
func testProfile(variant string, checksum float64) *caliper.Profile {
	return &caliper.Profile{
		Metadata: map[string]any{
			"machine": "Host", "variant": variant, "size_per_node": 1024,
			"campaign.spec": "Host_" + variant,
		},
		Records: []caliper.Record{
			{Path: []string{"suite"}, Metrics: map[string]float64{"time": 0.25}},
			{Path: []string{"suite", "Stream_DOT"}, Metrics: map[string]float64{
				"checksum": checksum, "wall_time": 0.125, "time": 1e-3,
				"frontend_bound": 0.1, "bad_speculation": 0.1, "retiring": 0.2,
				"core_bound": 0.2, "memory_bound": 0.4,
			}},
		},
	}
}

func TestChecksumCheckFlagsOneULP(t *testing.T) {
	x := 1009.2400000002126
	up := math.Nextafter(x, math.Inf(1))
	cases := []struct {
		name       string
		seq, omp   float64
		mismatches int
	}{
		{"identical", x, x, 0},
		{"parallel reassociation within tolerance", x, x * (1 + 1e-12), 0},
		{"sequential one ulp off", up, x, 1},
		{"parallel beyond tolerance", x, x * (1 + 1e-3), 1},
	}
	for _, c := range cases {
		got := checkChecksums([]*caliper.Profile{
			testProfile("Base_Seq", x), testProfile("RAJA_Seq", c.seq), testProfile("RAJA_OpenMP", c.omp),
		})
		if got.Checked != 2 || got.ChecksumMismatches != c.mismatches {
			t.Errorf("%s: checked %d, mismatches %d; want 2, %d", c.name, got.Checked, got.ChecksumMismatches, c.mismatches)
		}
	}
}

func TestChecksumCheckFailsUnmatched(t *testing.T) {
	other := testProfile("RAJA_Seq", 1)
	other.Records[1].Path = []string{"suite", "Stream_ADD"} // no Base_Seq checksum
	got := checkChecksums([]*caliper.Profile{testProfile("Base_Seq", 1), other})
	if got.Checked != 1 || got.ChecksumMismatches != 1 {
		t.Errorf("unmatched RAJA kernel: checked %d, mismatches %d; want 1, 1", got.Checked, got.ChecksumMismatches)
	}
	if got := checkChecksums([]*caliper.Profile{testProfile("Base_Seq", 1)}); got.ChecksumMismatches != 1 {
		t.Errorf("no RAJA checksum: %d mismatches, want 1", got.ChecksumMismatches)
	}
}

func TestModelIdentityFlagsOneULP(t *testing.T) {
	ref := map[string]modelDigest{"Host_RAJA_Seq": digest(testProfile("RAJA_Seq", 1))}

	same := testProfile("RAJA_Seq", 1)
	same.Records[0].Metrics["time"] = 9 // root wall clock may differ
	same.Records[1].Metrics["wall_time"] = 9
	if got := checkModelIdentity([]*caliper.Profile{same}, ref); got.ModelMismatches != 0 || got.Checked != 7 {
		t.Errorf("identical modeled metrics: checked %d, mismatches %d; want 7, 0", got.Checked, got.ModelMismatches)
	}

	ulp := testProfile("RAJA_Seq", 1)
	ulp.Records[1].Metrics["memory_bound"] = math.Nextafter(0.4, 1)
	if got := checkModelIdentity([]*caliper.Profile{ulp}, ref); got.ModelMismatches != 1 {
		t.Errorf("one ulp off: %d mismatches, want 1", got.ModelMismatches)
	}

	missing := testProfile("RAJA_Seq", 1)
	delete(missing.Records[1].Metrics, "retiring")
	if got := checkModelIdentity([]*caliper.Profile{missing}, ref); got.ModelMismatches != 7 {
		t.Errorf("missing metric: %d mismatches, want 7", got.ModelMismatches)
	}
	if got := checkModelIdentity(nil, ref); got.ModelMismatches != 7 {
		t.Errorf("missing spec: %d mismatches, want 7", got.ModelMismatches)
	}
	if got := checkModelIdentity([]*caliper.Profile{same}, nil); got.ModelMismatches != 1 {
		t.Errorf("empty reference: %d mismatches, want 1", got.ModelMismatches)
	}
}

func TestSummaryCheck(t *testing.T) {
	claims := func(status ...string) string {
		var b strings.Builder
		for i, s := range status {
			fmt.Fprintf(&b, "[%s] claim %d\n", s, i+1)
		}
		return b.String()
	}
	cases := []struct {
		name   string
		out    string
		failed int
	}{
		{"all pass", claims("PASS", "PASS", "PASS", "PASS", "PASS"), 0},
		{"one fails", claims("PASS", "FAIL", "PASS", "PASS", "PASS"), 1},
		{"two claims missing", claims("PASS", "PASS", "PASS"), 2},
		{"no claims", "", summaryClaims},
	}
	for _, c := range cases {
		got := checkSummary(c.out)
		if got.Checked != summaryClaims || got.SummaryFailed != c.failed {
			t.Errorf("%s: checked %d, failed %d; want %d, %d", c.name, got.Checked, got.SummaryFailed, summaryClaims, c.failed)
		}
	}
}

func TestTMACheck(t *testing.T) {
	good := testProfile("RAJA_Seq", 1)
	if got := checkTMA([]*caliper.Profile{good}); got.Checked != 1 || got.TMAViolations != 0 {
		t.Errorf("valid tuple: checked %d, violations %d", got.Checked, got.TMAViolations)
	}
	bad := testProfile("RAJA_Seq", 1)
	bad.Records[1].Metrics["retiring"] = 0.25 // sums to 1.05
	neg := testProfile("RAJA_Seq", 1)
	neg.Records[1].Metrics["retiring"] = -0.1
	neg.Records[1].Metrics["memory_bound"] = 0.7
	if got := checkTMA([]*caliper.Profile{bad, neg}); got.TMAViolations != 2 {
		t.Errorf("invalid tuples: %d violations, want 2", got.TMAViolations)
	}
	none := testProfile("RAJA_Seq", 1)
	delete(none.Records[1].Metrics, "core_bound")
	if got := checkTMA([]*caliper.Profile{none}); got.TMAViolations != 1 {
		t.Errorf("no tuple: %d violations, want 1", got.TMAViolations)
	}
}

func TestGraftKeepsOneRepeat(t *testing.T) {
	t0 := time.Unix(0, 0)
	main := newSpanLog()
	root := main.add(span{Name: "iteration", Layer: "bench", Start: t0, End: t0.Add(10 * time.Second)})
	own := newSpanLog()
	an := own.add(span{Name: "analyze", Layer: "analysis", Start: t0, End: t0.Add(3 * time.Second)})
	own.add(span{Parent: an, Name: "caliper.ReadDir", Layer: "caliper", Start: t0, End: t0.Add(time.Second)})
	main.graft(own, root)
	got := selfTimes(main.snapshot(), 1)
	want := map[string]float64{"bench": 7, "analysis": 2, "caliper": 1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{ID: 1, Name: "campaign.Run", Layer: "campaign", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "campaign.Submit", Layer: "executor", Start: at(1), End: at(5)},
		{ID: 3, Parent: 1, Name: "campaign.Submit", Layer: "executor", Start: at(4), End: at(7)},
		{ID: 4, Parent: 2, Name: "suite.RunContext", Layer: "suite", Start: at(2), End: at(3)},
	}
	got := selfTimes(spans, 1)
	want := map[string]float64{"campaign": 4, "executor": 6, "suite": 1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestSummarizePerPassPercentiles(t *testing.T) {
	pass := func(spec, analyze []float64) *iteration {
		return &iteration{Setup: 1, Campaign: 1, Figures: 1, SpecMS: spec, AnalyzeRepeats: analyze}
	}
	its := []*iteration{
		pass([]float64{10, 20, 30}, []float64{1, 2}),
		pass([]float64{10, 20, 1000}, []float64{3}), // one slow burst
		pass([]float64{12, 22, 32}, []float64{4, 5, 6}),
	}
	for _, c := range []struct {
		workload string
		analyze  float64
	}{
		{hostExec, 1},     // the fastest repeat of any pass
		{modelSweep, 3.5}, // the median of every repeat
	} {
		rep := summarize(config{Workload: c.workload}, its, 1024)
		want := map[string]float64{
			"spec_p50_ms": 20, // per-pass 20, 20, 22
			"spec_p95_ms": 31, // per-pass 29, 902, 31; pooled would be 613
			"analyze_s":   c.analyze,
		}
		for name, v := range want {
			if got := rep.Metrics[name].Value; math.Abs(got-v) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", c.workload, name, got, v)
			}
		}
	}
}
