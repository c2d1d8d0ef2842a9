package report

import (
	"context"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
	"rajaperf/internal/resilience"
)

var smallKernels = []string{"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY"}

// collect runs the report plan for the small configuration through the
// campaign executor and builds the report from the retained profiles.
func collect(t *testing.T, opts campaign.Options, names ...string) (*Report, error) {
	t.Helper()
	base := campaign.Plan{
		Kernels: names,
		Variants: []string{
			kernels.BaseSeq.String(), kernels.RAJASeq.String(), kernels.RAJAOpenMP.String(),
		},
		Sizes: []int{10_000}, Reps: 1, Workers: 2,
	}
	profiles, err := campaign.Collect(context.Background(), Plan(base), opts)
	if err != nil {
		return nil, err
	}
	return FromProfiles(names, profiles)
}

func smallReport(t *testing.T) *Report {
	t.Helper()
	rep, err := collect(t, campaign.Options{}, smallKernels...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunAndTimingReport(t *testing.T) {
	rep := smallReport(t)
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, res := range rep.Results {
		for _, v := range rep.Variants {
			if tm, ok := res.Times[v]; !ok || tm <= 0 {
				t.Errorf("%s %s time = %v, %v", res.Name, v, tm, ok)
			}
		}
	}
	out := rep.Timing()
	for _, frag := range []string{"Stream_TRIAD", "Base_Seq", "RAJA_OpenMP", "ms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("timing report missing %q", frag)
		}
	}
}

func TestChecksumReportPasses(t *testing.T) {
	rep := smallReport(t)
	if failed := rep.FailedKernels(); len(failed) != 0 {
		t.Errorf("checksum failures: %v", failed)
	}
	out := rep.Checksums()
	if strings.Count(out, "PASS") != 3 {
		t.Errorf("expected 3 PASS rows:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("unexpected FAIL:\n%s", out)
	}
}

func TestChecksumFailureDetected(t *testing.T) {
	// Tamper with a result to simulate a broken variant.
	rep := smallReport(t)
	rep.Results[0].Checksums[kernels.RAJASeq] *= 1.5
	failed := rep.FailedKernels()
	if len(failed) != 1 || failed[0] != rep.Results[0].Name {
		t.Errorf("FailedKernels = %v", failed)
	}
	if !strings.Contains(rep.Checksums(), "FAIL") {
		t.Error("checksum report should flag the tampered kernel")
	}
}

func TestCSVShape(t *testing.T) {
	rep := smallReport(t)
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3", len(lines))
	}
	if lines[0] != "kernel,Base_Seq,RAJA_Seq,RAJA_OpenMP" {
		t.Errorf("CSV header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 3 {
			t.Errorf("CSV row %q malformed", l)
		}
	}
}

func TestSpeedupOverBase(t *testing.T) {
	rep := smallReport(t)
	sp := rep.SpeedupOverBase(kernels.BaseSeq, kernels.RAJASeq)
	if len(sp) != 3 {
		t.Fatalf("speedup map has %d entries", len(sp))
	}
	for k, v := range sp {
		if v <= 0 {
			t.Errorf("%s base/raja ratio = %v", k, v)
		}
	}
}

func TestUnknownKernelErrors(t *testing.T) {
	if _, err := collect(t, campaign.Options{}, "No_SUCH"); err == nil {
		t.Error("unknown kernel must error")
	}
}

// TestReportSurvivesKernelPanic: an injected kernel panic is isolated by
// the suite like any campaign run's — the report completes, the failed
// variant renders as "--", and the variants that ran still agree.
func TestReportSurvivesKernelPanic(t *testing.T) {
	inj, err := resilience.ParseFaults("kernel.panic:1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := collect(t, campaign.Options{Faults: inj}, smallKernels...)
	if err != nil {
		t.Fatal(err)
	}
	// The first spec (Base_Seq) runs the first kernel first.
	first := rep.Results[0]
	if _, ok := first.Times[kernels.BaseSeq]; ok || len(first.Skipped) != 1 || first.Skipped[0] != kernels.BaseSeq {
		t.Fatalf("%s: Base_Seq should have failed, times %v skipped %v", first.Name, first.Times, first.Skipped)
	}
	row := strings.Split(rep.Timing(), "\n")[1]
	if !strings.HasPrefix(row, first.Name) || !strings.Contains(row, "--") {
		t.Errorf("timing row should show the failed variant as --: %q", row)
	}
	if out := rep.Checksums(); strings.Count(out, "PASS") != 3 {
		t.Errorf("expected 3 PASS rows:\n%s", out)
	}
}

func TestScalingStudy(t *testing.T) {
	counts := []int{1, 2}
	base := campaign.Plan{
		Kernels: []string{"Stream_TRIAD", "Basic_MAT_MAT_SHARED", "Comm_HALO_SENDRECV"},
		Sizes:   []int{200_000}, Reps: 2,
	}
	var profiles []*caliper.Profile
	for _, w := range counts {
		ps, err := campaign.Collect(context.Background(), ScalingPlan(base, w), campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, ps...)
	}
	rows := ScalingFromProfiles(counts, profiles)
	// HALO_SENDRECV has no RAJA_OpenMP variant and is skipped.
	if len(rows) != 2 {
		t.Fatalf("scaling rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Times[1] <= 0 || r.Times[2] <= 0 {
			t.Errorf("%s missing timings: %+v", r.Kernel, r.Times)
		}
		if r.Efficiency <= 0 {
			t.Errorf("%s efficiency = %v", r.Kernel, r.Efficiency)
		}
		if _, ok := r.Imbalance[2]; !ok {
			t.Errorf("%s missing imbalance at w=2: %+v", r.Kernel, r.Imbalance)
		}
	}
	out := RenderScaling(rows, counts)
	for _, frag := range []string{"Stream_TRIAD", "w=1", "w=2", "efficiency", "imbalance"} {
		if !strings.Contains(out, frag) {
			t.Errorf("scaling table missing %q", frag)
		}
	}
}
