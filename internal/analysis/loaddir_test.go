package analysis

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/machine"
	"rajaperf/internal/suite"
)

func TestSessionLoadDirLenient(t *testing.T) {
	dir := t.TempDir()
	for i, m := range []string{"SPR-DDR", "SPR-HBM"} {
		c := caliper.NewRecorder()
		c.AddMetadata("machine", m)
		c.AddMetadata("variant", "RAJA_Seq")
		c.SetMetricAt([]string{"suite", "K"}, "time", float64(i+1))
		path := filepath.Join(dir, "run"+m+caliper.FileExt)
		if err := c.Profile().WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// A torn profile and one without machine metadata: skipped without
	// blocking the load.
	if err := os.WriteFile(filepath.Join(dir, "torn"+caliper.FileExt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	anon := caliper.NewRecorder()
	anon.SetMetricAt([]string{"suite", "K"}, "time", 9)
	if err := anon.Profile().WriteFile(filepath.Join(dir, "anon"+caliper.FileExt)); err != nil {
		t.Fatal(err)
	}

	s := NewSession(0, false)
	loaded, ferrs, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 {
		t.Errorf("loaded = %d, want 2", loaded)
	}
	if len(ferrs) != 1 || !strings.Contains(ferrs[0].Path, "torn") {
		t.Errorf("FileErrors = %v, want the torn file", ferrs)
	}
	// The cached profile serves without re-running the suite.
	p, err := s.Profile(machine.SPRDDR())
	if err != nil {
		t.Fatal(err)
	}
	if rec := p.Find("K"); rec == nil || rec.Metrics["time"] != 1 {
		t.Errorf("cached profile not served from disk: %+v", rec)
	}
	// Loading again does not overwrite existing cache entries.
	if loaded, _, err := s.LoadDir(dir); err != nil || loaded != 0 {
		t.Errorf("second LoadDir = %d, %v; want 0 new", loaded, err)
	}
}

// TestSessionLoadDirSelectsPrefetchProfile loads a campaign directory
// holding several profiles per machine — two sizes by two variants — and
// checks that the session picks the Table III profile Prefetch would have
// collected, so every headline claim holds over the loaded data.
func TestSessionLoadDirSelectsPrefetchProfile(t *testing.T) {
	dir := t.TempDir()
	sizes := []int{1_000_000, suite.DefaultSizePerNode}
	for _, plan := range []campaign.Plan{
		{Machines: []string{"SPR-DDR", "SPR-HBM"}, Variants: []string{"Base_Seq", "RAJA_Seq"}},
		{Machines: []string{"P9-V100", "EPYC-MI250X"}, Variants: []string{"Base_GPU", "RAJA_GPU"}},
	} {
		plan.Sizes = sizes
		res, err := campaign.Run(context.Background(), plan, campaign.Options{OutDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	}

	s := NewSession(0, false)
	loaded, ferrs, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || len(ferrs) != 0 {
		t.Fatalf("LoadDir = %d loaded, %v; want 4, none skipped", loaded, ferrs)
	}
	for _, m := range machine.Paper() {
		p, err := s.Profile(m)
		if err != nil {
			t.Fatal(err)
		}
		if v := p.Metadata["variant"]; v != suite.DefaultVariant(m).String() {
			t.Errorf("%s: loaded variant %v, want %v", m.Shorthand, v, suite.DefaultVariant(m))
		}
		if n, _ := p.Metadata["size_per_node"].(float64); n != suite.DefaultSizePerNode {
			t.Errorf("%s: loaded size_per_node %v, want %d", m.Shorthand, p.Metadata["size_per_node"], suite.DefaultSizePerNode)
		}
	}
	out, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "[PASS]") != 5 || strings.Contains(out, "[FAIL]") {
		t.Errorf("want 5 passing claims over the loaded profiles:\n%s", out)
	}

	// A session at a size the directory lacks names the machines it
	// cannot serve and caches nothing.
	other := NewSession(2_000_000, false)
	if _, _, err := other.LoadDir(dir); err == nil || !strings.Contains(err.Error(), "SPR-DDR") {
		t.Errorf("LoadDir at an absent size: err = %v, want one naming SPR-DDR", err)
	}
	if len(other.cached(machine.Paper())) != 4 {
		t.Error("failed LoadDir seeded the cache")
	}
}
