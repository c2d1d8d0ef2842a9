package kernels

import (
	"fmt"
	"sort"
	"sync"
)

// kernelRegistry holds kernel factories with each kernel's figure-order
// sort key, computed once at registration.
type kernelRegistry struct {
	sync.Mutex
	factories map[string]func() Kernel
	keys      []sortKey
	sorted    bool // keys are in figure order; Register clears it
}

// sortKey orders kernels by group then name, the order the paper's
// figures use.
type sortKey struct {
	group    Group
	name     string
	fullName string
}

func newRegistry() *kernelRegistry {
	return &kernelRegistry{factories: map[string]func() Kernel{}}
}

// registry is the global kernel registry kernel packages fill from init.
var registry = newRegistry()

// Register adds a kernel factory to the global registry. It panics if a
// kernel with the same full name is already registered. Kernel packages
// call it from init.
func Register(f func() Kernel) { registry.register(f) }

func (r *kernelRegistry) register(f func() Kernel) {
	in := f().Info()
	key := sortKey{group: in.Group, name: in.Name, fullName: in.FullName()}
	r.Lock()
	defer r.Unlock()
	if _, dup := r.factories[key.fullName]; dup {
		panic(fmt.Sprintf("kernels: duplicate registration of %s", key.fullName))
	}
	r.factories[key.fullName] = f
	r.keys = append(r.keys, key)
	r.sorted = false
}

// Names returns the full names of all registered kernels sorted by group
// then name, the order the paper's figures use. The slice is the
// caller's to modify.
func Names() []string { return registry.names() }

func (r *kernelRegistry) names() []string {
	r.Lock()
	defer r.Unlock()
	if !r.sorted {
		sort.Slice(r.keys, func(i, j int) bool {
			if r.keys[i].group != r.keys[j].group {
				return r.keys[i].group < r.keys[j].group
			}
			return r.keys[i].name < r.keys[j].name
		})
		r.sorted = true
	}
	names := make([]string, len(r.keys))
	for i, k := range r.keys {
		names[i] = k.fullName
	}
	return names
}

// New constructs a fresh instance of the named kernel.
func New(fullName string) (Kernel, error) {
	registry.Lock()
	f, ok := registry.factories[fullName]
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q", fullName)
	}
	return f(), nil
}

// All constructs one instance of every registered kernel in figure order.
func All() []Kernel {
	names := Names()
	ks := make([]Kernel, 0, len(names))
	for _, n := range names {
		k, err := New(n)
		if err != nil {
			panic(err) // unreachable: names came from the registry
		}
		ks = append(ks, k)
	}
	return ks
}

// ByGroup constructs all kernels of one group in figure order.
func ByGroup(g Group) []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.Info().Group == g {
			ks = append(ks, k)
		}
	}
	return ks
}

// WithFeature constructs all kernels annotated with feature f.
func WithFeature(f Feature) []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.Info().HasFeature(f) {
			ks = append(ks, k)
		}
	}
	return ks
}

// Count returns the number of registered kernels.
func Count() int {
	registry.Lock()
	defer registry.Unlock()
	return len(registry.factories)
}
