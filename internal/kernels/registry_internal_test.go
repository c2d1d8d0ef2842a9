package kernels

import (
	"slices"
	"sort"
	"testing"
)

type fakeKernel struct{ KernelBase }

func (*fakeKernel) SetUp(RunParams)                {}
func (*fakeKernel) Run(VariantID, RunParams) error { return nil }
func (*fakeKernel) TearDown()                      {}

func fakeFactory(g Group, name string) func() Kernel {
	return func() Kernel {
		return &fakeKernel{NewKernelBase(Info{Group: g, Name: name})}
	}
}

// constructedOrder is the figure order computed the way Names once did:
// by constructing kernels inside the comparator.
func constructedOrder(r *kernelRegistry) []string {
	var names []string
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := r.factories[names[i]]().Info(), r.factories[names[j]]().Info()
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Name < b.Name
	})
	return names
}

func TestRegistryNamesOrderAndInvalidation(t *testing.T) {
	r := newRegistry()
	for _, f := range []func() Kernel{
		fakeFactory(Stream, "TRIAD"),
		fakeFactory(Algorithms, "SCAN"),
		fakeFactory(Basic, "PI_REDUCE"),
		fakeFactory(Basic, "DAXPY"),
		fakeFactory(Apps, "VOL3D"),
		fakeFactory(Stream, "ADD"),
	} {
		r.register(f)
	}
	got := r.names()
	if want := constructedOrder(r); !slices.Equal(got, want) {
		t.Fatalf("names() = %v, want %v", got, want)
	}
	// The result is a copy: mutating it leaves the cached order intact.
	got[0] = "clobbered"
	if again := r.names(); again[0] != "Algorithm_SCAN" {
		t.Errorf("names() after caller mutation = %v", again)
	}
	// A Register after names() shows up in the next call, in order.
	r.register(fakeFactory(Basic, "COPY8"))
	got = r.names()
	if want := constructedOrder(r); !slices.Equal(got, want) {
		t.Fatalf("names() after Register = %v, want %v", got, want)
	}
	if !slices.Contains(got, "Basic_COPY8") {
		t.Errorf("late registration missing from %v", got)
	}
}
