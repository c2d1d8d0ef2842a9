package suite

import (
	"context"
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

func TestModelOnlyRunProducesFullProfile(t *testing.T) {
	p, err := RunContext(context.Background(), Config{
		Machine: machine.SPRDDR(),
		Variant: kernels.RAJASeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every registered kernel implementing RAJA_Seq must appear.
	want := 0
	for _, name := range kernels.Names() {
		k, _ := kernels.New(name)
		if k.Info().HasVariant(kernels.RAJASeq) {
			want++
			rec := p.Find(name)
			if rec == nil {
				t.Errorf("kernel %s missing from profile", name)
				continue
			}
			for _, m := range []string{"time", "memory_bound", "retiring",
				"Flops/Rep", "Bytes/Rep Read", "GB/s"} {
				if _, ok := rec.Metrics[m]; !ok {
					t.Errorf("%s missing metric %s", name, m)
				}
			}
			mb := rec.Metrics["memory_bound"]
			if mb < 0 || mb > 1 {
				t.Errorf("%s memory_bound = %v out of [0,1]", name, mb)
			}
		}
	}
	if got := int(p.Metadata["kernels_run"].(int)); got != want {
		t.Errorf("kernels_run = %d, want %d", got, want)
	}
	if p.Metadata["machine"] != "SPR-DDR" || p.Metadata["variant"] != "RAJA_Seq" {
		t.Errorf("metadata wrong: %v", p.Metadata)
	}
}

func TestGPURunRecordsNCUCounters(t *testing.T) {
	p, err := RunContext(context.Background(), Config{
		Machine: machine.P9V100(),
		Variant: kernels.RAJAGPU,
		Kernels: []string{"Stream_TRIAD", "Basic_DAXPY", "Polybench_GEMM"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Stream_TRIAD", "Basic_DAXPY", "Polybench_GEMM"} {
		rec := p.Find(name)
		if rec == nil {
			t.Fatalf("%s missing", name)
		}
		for _, m := range []string{
			"sm__sass_thread_inst_executed.sum",
			"dram__sectors_read.sum",
			"gpu__time_duration.sum",
			"occupancy",
		} {
			if rec.Metrics[m] <= 0 {
				t.Errorf("%s counter %s = %v, want > 0", name, m, rec.Metrics[m])
			}
		}
	}
	if p.Metadata["tuning"] != "block_256" {
		t.Errorf("tuning = %v, want block_256", p.Metadata["tuning"])
	}
}

func TestExecuteRunRecordsChecksumAndWallTime(t *testing.T) {
	p, err := RunContext(context.Background(), Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJAOpenMP,
		SizePerNode: 50_000,
		Reps:        1,
		Workers:     2,
		Execute:     true,
		Kernels:     []string{"Stream_TRIAD", "Stream_DOT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Stream_TRIAD", "Stream_DOT"} {
		rec := p.Find(name)
		if rec == nil {
			t.Fatalf("%s missing", name)
		}
		if rec.Metrics["wall_time"] <= 0 {
			t.Errorf("%s wall_time = %v", name, rec.Metrics["wall_time"])
		}
		if _, ok := rec.Metrics["checksum"]; !ok {
			t.Errorf("%s missing checksum", name)
		}
	}
}

func TestSkippedKernelsMirrorVariantSparsity(t *testing.T) {
	// Lambda_OpenMP is absent from scans, sorts, comm, and others.
	p, err := RunContext(context.Background(), Config{Machine: machine.SPRDDR(), Variant: kernels.LambdaOpenMP})
	if err != nil {
		t.Fatal(err)
	}
	if p.Metadata["kernels_skipped"].(int) == 0 {
		t.Error("expected some kernels to lack Lambda_OpenMP")
	}
	if p.Find("Algorithm_SORT") != nil {
		t.Error("SORT must be skipped for Lambda_OpenMP")
	}
}

func TestRunRejectsMissingMachine(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{}); err == nil {
		t.Error("Run must reject a nil machine")
	}
}

func TestDefaultVariantFollowsTableIII(t *testing.T) {
	if v := DefaultVariant(machine.SPRDDR()); v != kernels.RAJASeq {
		t.Errorf("CPU default variant = %s", v)
	}
	if v := DefaultVariant(machine.EPYCMI250X()); v != kernels.RAJAGPU {
		t.Errorf("GPU default variant = %s", v)
	}
}

func TestTuningRecordedInMetadata(t *testing.T) {
	run := func(block int) (string, float64) {
		p, err := RunContext(context.Background(), Config{
			Machine:  machine.P9V100(),
			Variant:  kernels.RAJAGPU,
			GPUBlock: block,
			Kernels:  []string{"Apps_MASS3DPA"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.Metadata["tuning"].(string), p.Find("Apps_MASS3DPA").Metrics["time"]
	}
	tun32, t32 := run(32)
	tun256, t256 := run(256)
	if tun32 != "block_32" || tun256 != "block_256" {
		t.Errorf("tunings recorded as %q/%q", tun32, tun256)
	}
	if t32 <= 0 || t256 <= 0 {
		t.Error("modeled times must be positive for both tunings")
	}
	// Occupancy sensitivity itself is covered by the gpusim tests; an
	// FP-ceiling-bound kernel may legitimately tie across block sizes.
}
