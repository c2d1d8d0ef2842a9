package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
	"rajaperf/internal/telemetry"
)

func ids(specs []RunSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID()
	}
	return out
}

func TestSpecsCrossProduct(t *testing.T) {
	p := Plan{
		Machines:  []string{"SPR-DDR", "P9-V100"},
		Variants:  []string{"RAJA_Seq", "RAJA_GPU"},
		GPUBlocks: []int{128, 256},
		Sizes:     []int{1_000_000},
	}
	specs, err := p.Specs()
	if err != nil {
		t.Fatal(err)
	}
	// Per machine: RAJA_Seq collapses the tuning axis (1 spec), RAJA_GPU
	// expands it (2 specs) — 3 specs × 2 machines.
	want := []string{
		"SPR-DDR_RAJA_Seq_default_n1000000_default",
		"SPR-DDR_RAJA_GPU_block_128_n1000000_default",
		"SPR-DDR_RAJA_GPU_block_256_n1000000_default",
		"P9-V100_RAJA_Seq_default_n1000000_default",
		"P9-V100_RAJA_GPU_block_128_n1000000_default",
		"P9-V100_RAJA_GPU_block_256_n1000000_default",
	}
	if got := ids(specs); !reflect.DeepEqual(got, want) {
		t.Errorf("specs = %v\nwant %v", got, want)
	}

	// Expansion is pure: a second call yields the identical list.
	again, err := p.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Error("Specs is not deterministic")
	}
}

func TestSpecsNormalizesDefaults(t *testing.T) {
	p := Plan{
		Machines:  []string{"P9-V100"},
		GPUBlocks: []int{0, raja.DefaultBlock}, // both mean DefaultBlock
	}
	specs, err := p.Specs()
	if err != nil {
		t.Fatal(err)
	}
	// Default variant for a GPU machine is RAJA_GPU; block 0 normalizes
	// to DefaultBlock and the duplicate cell dedupes; size 0 normalizes
	// to the suite default.
	if len(specs) != 1 {
		t.Fatalf("specs = %v, want one deduplicated spec", ids(specs))
	}
	s := specs[0]
	if s.Variant != "RAJA_GPU" || s.GPUBlock != raja.DefaultBlock || s.Size != suite.DefaultSizePerNode {
		t.Errorf("normalized spec = %+v", s)
	}
	if s.Tuning() != "block_256" {
		t.Errorf("tuning = %q", s.Tuning())
	}
}

func TestSpecsIncludeExclude(t *testing.T) {
	p := Plan{
		Machines:  []string{"SPR-DDR", "P9-V100"},
		Variants:  []string{"RAJA_Seq", "RAJA_GPU"},
		GPUBlocks: []int{128, 256},
		Include:   []string{"RAJA_GPU"},    // substring
		Exclude:   []string{"*block_128*"}, // glob
	}
	specs, err := p.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %v, want 2", ids(specs))
	}
	for _, s := range specs {
		if s.Variant != "RAJA_GPU" || s.GPUBlock != 256 {
			t.Errorf("filter kept %s", s.ID())
		}
	}
}

func TestSpecsRejectsBadAxes(t *testing.T) {
	cases := []Plan{
		{},                                      // no machines
		{Machines: []string{"No-Such-Machine"}}, // unknown machine
		{Machines: []string{"SPR-DDR"}, Variants: []string{"RAJA_Quantum"}},
		{Machines: []string{"SPR-DDR"}, Schedules: []string{"fractal"}},
		{Machines: []string{"SPR-DDR"}, Dispatch: "jit"},
		{Machines: []string{"SPR-DDR"}, Services: "psychic"},
		{Machines: []string{"SPR-DDR"}, Services: "trace"}, // single-run mode only
	}
	for i, p := range cases {
		if _, err := p.Specs(); err == nil {
			t.Errorf("case %d: Specs accepted a bad plan", i)
		}
	}
}

func TestSpecConfigRoundtrip(t *testing.T) {
	p := Plan{
		Machines:  []string{"P9-V100"},
		Variants:  []string{"RAJA_GPU"},
		GPUBlocks: []int{64},
		Sizes:     []int{5_000_000},
		Schedules: []string{"guided"},
		Reps:      3,
		Workers:   2,
		Kernels:   []string{"Stream_TRIAD"},
		Execute:   true,
	}
	specs, err := p.Specs()
	if err != nil || len(specs) != 1 {
		t.Fatalf("specs = %v, err %v", specs, err)
	}
	cfg, err := specs[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine.Shorthand != "P9-V100" || cfg.Variant.String() != "RAJA_GPU" ||
		cfg.GPUBlock != 64 || cfg.SizePerNode != 5_000_000 ||
		cfg.Schedule != raja.ScheduleGuided || cfg.Reps != 3 ||
		cfg.Workers != 2 || !cfg.Execute || len(cfg.Kernels) != 1 {
		t.Errorf("config = %+v", cfg)
	}
	if !strings.HasSuffix(specs[0].FileName(), ".cali.json") {
		t.Errorf("file name %q lacks the profile extension", specs[0].FileName())
	}
}

// TestSpecsDispatchAndServices: the scalar Dispatch and Services fields
// reach every spec's suite config, stay out of the spec ID, and are
// stored canonically — defaults as "", so a plan that spells out the
// defaults marshals exactly like one that leaves them empty.
func TestSpecsDispatchAndServices(t *testing.T) {
	base := Plan{Machines: []string{"Host"}, Variants: []string{"RAJA_Seq"}, Sizes: []int{1000}}
	explicit := base
	explicit.Dispatch, explicit.Services = "mono", ""
	custom := base
	custom.Dispatch, custom.Services = "closure", "imbalance,runtime,imbalance"

	specs := map[string]RunSpec{}
	for name, p := range map[string]Plan{"base": base, "explicit": explicit, "custom": custom} {
		ss, err := p.Specs()
		if err != nil || len(ss) != 1 {
			t.Fatalf("%s: specs = %v, err %v", name, ss, err)
		}
		specs[name] = ss[0]
	}
	if specs["custom"].ID() != specs["base"].ID() {
		t.Errorf("dispatch/services changed the spec ID: %s vs %s", specs["custom"].ID(), specs["base"].ID())
	}
	b, _ := json.Marshal(specs["base"])
	e, _ := json.Marshal(specs["explicit"])
	if string(b) != string(e) || strings.Contains(string(b), "dispatch") || strings.Contains(string(b), "services") {
		t.Errorf("default dispatch/services must marshal away: %s vs %s", b, e)
	}
	if got := specs["custom"]; got.Dispatch != "closure" || got.Services != "imbalance,runtime" {
		t.Errorf("custom spec = %+v", got)
	}
	cfg, err := specs["custom"].Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dispatch != kernels.DispatchClosure || !cfg.Services.Enabled(caliper.ServiceImbalance) ||
		!cfg.Services.Enabled("runtime") {
		t.Errorf("config dispatch %v services %v", cfg.Dispatch, cfg.Services)
	}
}

// TestResumeRerunsOtherDispatch: dispatch mode is not in the spec ID, so
// resume must compare it explicitly — a profile recorded under mono does
// not complete the closure spec with the same ID.
func TestResumeRerunsOtherDispatch(t *testing.T) {
	dir := t.TempDir()
	p := Plan{Machines: []string{"Host"}, Variants: []string{"RAJA_Seq"},
		Kernels: []string{"Stream_TRIAD"}, Sizes: []int{1000}}
	opts := Options{OutDir: dir, Resume: true, Metrics: new(telemetry.Registry)}
	if res, err := Run(context.Background(), p, opts); err != nil || res.Done != 1 {
		t.Fatalf("first run: %+v, %v", res, err)
	}
	if res, err := Run(context.Background(), p, opts); err != nil || res.Resumed != 1 {
		t.Fatalf("same-plan resume: %+v, %v", res, err)
	}
	p.Dispatch = "closure"
	if res, err := Run(context.Background(), p, opts); err != nil || res.Done != 1 || res.Resumed != 0 {
		t.Fatalf("closure resume over a mono run: %+v, %v", res, err)
	}
}
