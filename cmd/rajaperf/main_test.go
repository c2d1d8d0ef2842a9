package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
)

// TestMain doubles as the rajaperf binary: with RAJAPERF_TEST_MAIN set,
// the test binary runs realMain on its arguments, so tests can check
// exit codes end to end.
func TestMain(m *testing.M) {
	if os.Getenv("RAJAPERF_TEST_MAIN") != "" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// rajaperf runs the CLI in a child process and returns its exit code and
// stderr.
func rajaperf(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RAJAPERF_TEST_MAIN=1")
	cmd.Dir = t.TempDir()
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func TestCampaignRejectsSingleRunFlags(t *testing.T) {
	cases := []struct{ flag, want string }{
		{"variant", "use -variants"},
		{"block", "use -blocks"},
		{"group", "use -kernels"},
		{"feature", "use -kernels"},
		{"trace", "tracing is single-run only"},
	}
	for _, c := range cases {
		err := checkCampaignFlags(map[string]bool{c.flag: true, "campaign": true})
		if err == nil {
			t.Errorf("-%s with -campaign: want an error", c.flag)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-"+c.flag+" ") || !strings.Contains(msg, c.want) {
			t.Errorf("-%s with -campaign: error %q must name the flag and %q", c.flag, msg, c.want)
		}
	}
	code, stderr := rajaperf(t, "-campaign", "-machines", "Host", "-variant", "RAJA_Seq")
	if code != 2 || !strings.Contains(stderr, "-variant does not apply to -campaign; use -variants") {
		t.Errorf("rajaperf -campaign -variant: exit %d, stderr %q; want 2 naming -variants", code, stderr)
	}
	// The campaign's own flags, and the shared ones, pass.
	ok := map[string]bool{"campaign": true, "variants": true, "blocks": true,
		"kernels": true, "dispatch": true, "services": true, "outdir": true}
	if err := checkCampaignFlags(ok); err != nil {
		t.Errorf("campaign flags rejected: %v", err)
	}
}

func TestParseDispatchFlag(t *testing.T) {
	cases := []struct {
		in      string
		want    kernels.DispatchMode
		wantErr bool
	}{
		{"mono", kernels.DispatchMono, false},
		{"", kernels.DispatchMono, false},
		{"closure", kernels.DispatchClosure, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := kernels.ParseDispatch(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDispatch(%q): want error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestFabricRequiresExplicitOutdir(t *testing.T) {
	// -outdir defaults to ".", so the guard must key on whether the flag
	// was given, not on the value: a fabric campaign against the default
	// would scatter shard WALs and profiles over the working directory.
	code, err := runCampaign(
		campaign.Plan{Machines: []string{"SPR-DDR"}, Kernels: []string{"Stream_TRIAD"}},
		campaign.Options{OutDir: "."}, fabricArgs{workers: 2, outdirSet: false})
	if code != 2 || err == nil {
		t.Fatalf("fabric without explicit -outdir: code %d, err %v; want 2 and an error", code, err)
	}
	if !strings.Contains(err.Error(), "-outdir") {
		t.Fatalf("error must name -outdir, got %q", err)
	}
}

func TestCampaignHonorsDispatch(t *testing.T) {
	dir := t.TempDir()
	code, stderr := rajaperf(t, "-campaign", "-machines", "Host", "-variants", "RAJA_Seq",
		"-kernels", "Stream_TRIAD", "-sizes", "1000", "-execute", "-dispatch", "closure",
		"-quiet", "-outdir", dir)
	if code != 0 {
		t.Fatalf("closure campaign: exit %d, stderr %q", code, stderr)
	}
	p, err := caliper.ReadFile(filepath.Join(dir, "Host_RAJA_Seq_default_n1000_default.cali.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Metadata["dispatch"]; d != "closure" {
		t.Errorf("closure campaign profile records dispatch %v", d)
	}
}
