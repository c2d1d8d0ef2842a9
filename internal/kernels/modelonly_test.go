package kernels_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"rajaperf/internal/kernels"

	// Register every kernel group.
	_ "rajaperf/internal/kernels/algorithms"
	_ "rajaperf/internal/kernels/apps"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/comm"
	_ "rajaperf/internal/kernels/lcals"
	_ "rajaperf/internal/kernels/polybench"
	_ "rajaperf/internal/kernels/stream"
)

// modelOnlyBudget is the most a kernel's model-only SetUp plus TearDown
// may allocate. Model-only SetUp computes metrics and a mix from sizes
// alone, so its cost must not grow with the problem size.
const modelOnlyBudget = 64 << 10

// withModelOnly runs f with model-only mode switched on.
func withModelOnly(f func()) {
	kernels.SetModelOnly(true)
	defer kernels.SetModelOnly(false)
	f()
}

// TestModelOnlySetUpAllocationBudget pins that no kernel allocates or
// initialises its data in model-only mode: at the paper's 32M node size,
// SetUp and TearDown together stay within a small fixed budget. A buffer
// made with a raw make instead of kernels.Alloc fails here.
func TestModelOnlySetUpAllocationBudget(t *testing.T) {
	rp := kernels.RunParams{Size: 32_000_000, Ranks: 8}
	names := kernels.Names()
	if len(names) == 0 {
		t.Fatal("no kernels registered")
	}
	withModelOnly(func() {
		for _, name := range names {
			k, err := kernels.New(name)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k.SetUp(rp)
			k.TearDown()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > modelOnlyBudget {
				t.Errorf("%s: model-only SetUp+TearDown allocated %d bytes, budget %d",
					name, got, modelOnlyBudget)
			}
		}
	})
}

// TestModelOnlyKeepsModel pins the invariant model-only mode relies on:
// every kernel's analytic metrics and instruction mix after a model-only
// SetUp equal, bit for bit, those after an executed SetUp.
func TestModelOnlyKeepsModel(t *testing.T) {
	rp := kernels.RunParams{Size: 4096, Reps: 1}
	for _, name := range kernels.Names() {
		exec, err := kernels.New(name)
		if err != nil {
			t.Fatal(err)
		}
		exec.SetUp(rp)
		wantM, wantX := exec.Metrics(), exec.Mix()
		exec.TearDown()

		model, _ := kernels.New(name)
		withModelOnly(func() { model.SetUp(rp) })
		gotM, gotX := model.Metrics(), model.Mix()
		model.TearDown()

		if !bitsEqual(gotM, wantM) {
			t.Errorf("%s: model-only metrics %+v, executed %+v", name, gotM, wantM)
		}
		if !bitsEqual(gotX, wantX) {
			t.Errorf("%s: model-only mix %+v, executed %+v", name, gotX, wantX)
		}
	}
}

// bitsEqual compares two structs field by field, float64 fields by their
// bit patterns, so NaN and signed zero differences are not masked.
func bitsEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}
