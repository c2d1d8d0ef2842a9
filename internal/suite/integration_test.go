package suite

import (
	"context"
	"path/filepath"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/thicket"
)

// TestPipelineDiskRoundtrip exercises the paper's full Sec II-D data flow:
// run the suite on two machines, serialize one Caliper profile per run,
// read the directory back with Thicket, group by metadata, and derive the
// cross-machine speedup table — all through the on-disk format.
func TestPipelineDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	subset := []string{"Stream_TRIAD", "Stream_ADD", "Basic_DAXPY",
		"Polybench_GEMM", "Apps_FIR"}

	for _, m := range []*machine.Machine{machine.SPRDDR(), machine.EPYCMI250X()} {
		p, err := RunContext(context.Background(), Config{
			Machine: m,
			Variant: DefaultVariant(m),
			Kernels: subset,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, m.Shorthand+caliper.FileExt)
		if err := p.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}

	tk, err := thicket.FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tk.NumProfiles() != 2 {
		t.Fatalf("NumProfiles = %d", tk.NumProfiles())
	}
	groups := tk.GroupBy("machine")
	if len(groups) != 2 {
		t.Fatalf("GroupBy(machine) = %d groups", len(groups))
	}
	sp := thicket.SpeedupTable(groups["SPR-DDR"], groups["EPYC-MI250X"], "time")
	for _, k := range subset {
		v, ok := sp[k]
		if !ok {
			t.Errorf("speedup table missing %s", k)
			continue
		}
		if v <= 0 {
			t.Errorf("%s speedup = %v", k, v)
		}
	}
	// Streaming kernels gain more from the bandwidth-rich machine than
	// the matrix product does on this decomposition.
	if sp["Stream_TRIAD"] <= sp["Polybench_GEMM"] {
		t.Errorf("TRIAD (%0.1fx) should gain more than GEMM (%0.1fx) on MI250X",
			sp["Stream_TRIAD"], sp["Polybench_GEMM"])
	}

	// Metadata survives the roundtrip.
	for id := thicket.ProfileID(0); int(id) < tk.NumProfiles(); id++ {
		md := tk.Metadata(id)
		if md["variant"] == nil || md["tuning"] == nil || md["size_per_node"] == nil {
			t.Errorf("profile %d missing Adiak metadata: %v", id, md)
		}
	}

	// Aggregated statistics across the two runs.
	stats := tk.AggregateStats("time")
	found := 0
	for _, s := range stats {
		for _, k := range subset {
			if s.Node == k {
				found++
				if s.Count != 2 || s.Min <= 0 || s.Max < s.Min {
					t.Errorf("bad stats for %s: %+v", k, s)
				}
			}
		}
	}
	if found != len(subset) {
		t.Errorf("stats cover %d of %d kernels", found, len(subset))
	}
}

// TestExecutedPipelineChecksumsConsistent runs real computations on the
// host for a small subset and verifies the recorded checksums agree across
// two independent executions (determinism through the whole stack).
func TestExecutedPipelineChecksumsConsistent(t *testing.T) {
	cfg := Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJAOpenMP,
		SizePerNode: 30_000,
		Reps:        1,
		Workers:     3,
		Execute:     true,
		Kernels:     []string{"Stream_TRIAD", "Basic_REDUCE3_INT", "Lcals_HYDRO_1D"},
	}
	p1, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cfg.Kernels {
		c1 := p1.Find(k).Metrics["checksum"]
		c2 := p2.Find(k).Metrics["checksum"]
		if !kernels.ChecksumsClose(c1, c2) {
			t.Errorf("%s checksum differs across runs: %v vs %v", k, c1, c2)
		}
	}
}
