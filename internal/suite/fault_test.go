package suite

// Per-kernel fault isolation: a kernel that errors or panics must be
// recorded in the profile and the run must continue — the property that
// keeps one broken kernel from discarding a whole campaign profile.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/resilience"
)

// injectKernel is a test-only kernel whose Run misbehaves on demand. It
// reports sane analytic metrics and an instruction mix, so model-only
// suite runs (which never call Run) treat it as an ordinary kernel.
type injectKernel struct {
	kernels.KernelBase
	mode string // "fail", "panic", or "hook"
}

// injectHook, when set, is called by Basic_INJECT_HOOK's Run — tests use
// it to cancel a context mid-run.
var injectHook func()

func newInject(name, mode string) func() kernels.Kernel {
	return func() kernels.Kernel {
		k := &injectKernel{mode: mode}
		k.KernelBase = kernels.NewKernelBase(kernels.Info{
			Name:        name,
			Group:       kernels.Basic,
			Complexity:  kernels.CxN,
			DefaultSize: 1000,
			DefaultReps: 1,
			Variants: []kernels.VariantID{
				kernels.BaseSeq, kernels.RAJASeq,
				kernels.RAJAOpenMP, kernels.RAJAGPU,
			},
		})
		return k
	}
}

func (k *injectKernel) SetUp(rp kernels.RunParams) {
	n := float64(rp.EffectiveSize(k.Info()))
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead: 16 * n, BytesWritten: 8 * n, Flops: 2 * n,
	})
	k.SetMix(kernels.Mix{Flops: 2, Loads: 2, Stores: 1})
}

func (k *injectKernel) Run(v kernels.VariantID, rp kernels.RunParams) error {
	switch k.mode {
	case "panic":
		panic("injected panic")
	case "hook":
		if injectHook != nil {
			injectHook()
		}
		return nil
	default:
		return errors.New("injected failure")
	}
}

func (k *injectKernel) TearDown() {}

func init() {
	kernels.Register(newInject("INJECT_FAIL", "fail"))
	kernels.Register(newInject("INJECT_PANIC", "panic"))
	kernels.Register(newInject("INJECT_HOOK", "hook"))
}

func TestKernelFaultIsolation(t *testing.T) {
	p, err := RunContext(context.Background(), Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 10_000,
		Reps:        1,
		Execute:     true,
		Kernels: []string{
			"Stream_TRIAD", "Basic_INJECT_FAIL", "Basic_INJECT_PANIC", "Stream_DOT",
		},
	})
	if err != nil {
		t.Fatalf("a failing kernel must not abort the run: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	if got := p.Metadata["kernels_failed"].(int); got != 2 {
		t.Errorf("kernels_failed = %v, want 2", got)
	}
	if got := p.Metadata["kernels_run"].(int); got != 4 {
		t.Errorf("kernels_run = %v, want 4 (failed kernels still count as attempted)", got)
	}
	errs, ok := p.Metadata["errors"].([]string)
	if !ok || len(errs) != 2 {
		t.Fatalf("errors metadata = %#v, want 2 entries", p.Metadata["errors"])
	}
	for i, want := range []string{"Basic_INJECT_FAIL", "Basic_INJECT_PANIC"} {
		if len(errs) > i && !strings.Contains(errs[i], want) {
			t.Errorf("errors[%d] = %q, want mention of %s", i, errs[i], want)
		}
	}
	if !strings.Contains(errs[1], "injected panic") {
		t.Errorf("panic message lost: %q", errs[1])
	}

	// Failed kernels carry the error marker and no checksum.
	for _, name := range []string{"Basic_INJECT_FAIL", "Basic_INJECT_PANIC"} {
		rec := p.Find(name)
		if rec == nil {
			t.Fatalf("%s missing from profile", name)
		}
		if rec.Metrics["error"] != 1 {
			t.Errorf("%s error metric = %v, want 1", name, rec.Metrics["error"])
		}
		if _, has := rec.Metrics["checksum"]; has {
			t.Errorf("%s must not record a checksum", name)
		}
	}
	// Healthy kernels are untouched by their neighbors' failures.
	for _, name := range []string{"Stream_TRIAD", "Stream_DOT"} {
		rec := p.Find(name)
		if rec == nil {
			t.Fatalf("%s missing from profile", name)
		}
		if _, has := rec.Metrics["checksum"]; !has {
			t.Errorf("%s lost its checksum", name)
		}
		if rec.Metrics["wall_time"] <= 0 {
			t.Errorf("%s wall_time = %v", name, rec.Metrics["wall_time"])
		}
		if _, has := rec.Metrics["error"]; has {
			t.Errorf("%s wrongly marked failed", name)
		}
	}
}

func TestHealthyRunReportsZeroFailures(t *testing.T) {
	p, err := RunContext(context.Background(), Config{
		Machine: machine.SPRDDR(),
		Variant: kernels.RAJASeq,
		Kernels: []string{"Stream_TRIAD"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metadata["kernels_failed"].(int); got != 0 {
		t.Errorf("kernels_failed = %v, want 0", got)
	}
	if _, has := p.Metadata["errors"]; has {
		t.Error("errors metadata must be absent on a clean run")
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{
		Machine: machine.SPRDDR(),
		Variant: kernels.RAJASeq,
		Kernels: []string{"Stream_TRIAD"},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext with canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	injectHook = cancel
	defer func() { injectHook = nil }()

	// The hook kernel cancels the context from inside its own Run; the
	// suite must notice before starting the next kernel.
	_, err := RunContext(ctx, Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 10_000,
		Reps:        1,
		Execute:     true,
		Kernels:     []string{"Basic_INJECT_HOOK", "Stream_TRIAD"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext after mid-run cancel = %v, want context.Canceled", err)
	}
}

func TestUnknownKernelFailsBeforeRunning(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{
		Machine: machine.SPRDDR(),
		Variant: kernels.RAJASeq,
		Kernels: []string{"Stream_TRIAD", "No_Such_Kernel"},
	}); err == nil {
		t.Error("an unknown kernel name must be a plan error, not a silent skip")
	}
}

func TestInjectedKernelPanicIsolated(t *testing.T) {
	// A fault-injected panic lands inside executeKernel's lifecycle and
	// must behave exactly like an organic kernel panic: recorded on the
	// kernel node, counted in kernels_failed, run continues.
	inj, err := resilience.ParseFaults("kernel.panic:1")
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	p, err := RunContext(context.Background(), Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 10_000,
		Reps:        1,
		Execute:     true,
		Kernels:     []string{"Stream_TRIAD", "Stream_DOT"},
		Faults:      inj,
		Heartbeat:   func() { beats++ },
	})
	if err != nil {
		t.Fatalf("injected panic must not abort the run: %v", err)
	}
	if got := p.Metadata["kernels_failed"].(int); got != 1 {
		t.Errorf("kernels_failed = %v, want 1", got)
	}
	errs, _ := p.Metadata["errors"].([]string)
	if len(errs) != 1 || !strings.Contains(errs[0], "injected") {
		t.Errorf("errors = %v, want one injected-panic entry", errs)
	}
	// Count mode: exactly the first kernel panicked; the second ran clean.
	if rec := p.Find("Stream_TRIAD"); rec == nil || rec.Metrics["error"] != 1 {
		t.Error("first kernel must carry the error marker")
	}
	if rec := p.Find("Stream_DOT"); rec == nil || rec.Metrics["error"] == 1 {
		t.Error("second kernel must be clean")
	}
	if inj.Fired(resilience.FaultKernelPanic) != 1 {
		t.Errorf("fault fired %d times, want 1", inj.Fired(resilience.FaultKernelPanic))
	}
	// The kernel-boundary heartbeat ticked once per kernel.
	if beats != 2 {
		t.Errorf("heartbeat ticked %d times, want 2", beats)
	}
}

func TestInjectedSlowLaneUnblocksOnCancel(t *testing.T) {
	inj, err := resilience.ParseFaults("lane.slow:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel(resilience.ErrRunStalled)
	}()
	start := time.Now()
	p, err := RunContext(ctx, Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 10_000,
		Reps:        1,
		Execute:     true,
		Kernels:     []string{"Stream_TRIAD", "Stream_DOT"},
		Faults:      inj,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow-lane fault did not unblock on cancel (took %v)", elapsed)
	}
	// The hung kernel unblocks with the cancellation cause; the next
	// kernel boundary then abandons the run with the same cause.
	if p != nil || err == nil || !errors.Is(err, resilience.ErrRunStalled) {
		t.Errorf("RunContext = (%v, %v), want the watchdog cause", p, err)
	}
}
