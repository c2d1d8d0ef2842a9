// Package analysis assembles the paper's experiments: it runs the suite
// over the modeled machines (through package campaign's orchestrator),
// composes the resulting Caliper profiles with package thicket, and
// regenerates every table and figure of the evaluation — the kernel
// inventory (Table I), machine characterization (Table II/III), NCU
// metric set (Table IV), analytic metrics (Fig 1), the TMA hierarchy and
// per-kernel top-down breakdowns (Fig 2-4), instruction rooflines (Fig
// 5), Ward clustering with per-cluster characterization (Fig 6-8), the
// memory-bound/speedup panels (Fig 9), and the bandwidth-versus-FLOPS
// trade-off (Fig 10).
package analysis

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/machine"
	"rajaperf/internal/thicket"
)

// Session runs and caches one suite execution per machine so the
// experiment generators can share them. Collection goes through the
// campaign orchestrator, so multi-machine figures can collect their
// profiles concurrently (Jobs) with one private executor pool per
// in-flight run.
type Session struct {
	// SizePerNode is the total node problem size (paper: 32M).
	SizePerNode int
	// Reps is the per-kernel repetition override (0 = kernel default).
	Reps int
	// Workers bounds execution parallelism per run (0 = all cores).
	Workers int
	// Execute runs the real kernel computations in addition to the
	// hardware models.
	Execute bool
	// Jobs bounds how many machines Prefetch collects concurrently
	// (0 or 1 = one at a time).
	Jobs int

	// runMu serializes collection, so concurrent figure generators
	// never run the same machine twice; mu guards only the cache map.
	runMu    sync.Mutex
	mu       sync.Mutex
	profiles map[string]*caliper.Profile

	// tkMu guards the composed-thicket memo. Compositions stream
	// through one thicket.Composer: a request extending the previously
	// composed machine sequence appends only the new profiles and
	// snapshots — no re-ingest — and identical requests return the
	// memoized view (whose engine-level query cache they then share).
	tkMu     sync.Mutex
	composer *thicket.Composer
	composed []string // machine shorthands in the composer, in order
	thickets map[string]*thicket.Thicket
}

// NewSession returns a session with the given node problem size (0 =
// suite default).
func NewSession(sizePerNode int, execute bool) *Session {
	return &Session{
		SizePerNode: sizePerNode,
		Execute:     execute,
		profiles:    map[string]*caliper.Profile{},
	}
}

// cached returns the machines of ms that have no cached profile yet.
func (s *Session) cached(ms []*machine.Machine) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []string
	for _, m := range ms {
		if _, ok := s.profiles[m.Shorthand]; !ok {
			missing = append(missing, m.Shorthand)
		}
	}
	return missing
}

// Prefetch collects the suite profiles of every listed machine that is
// not cached yet, running up to s.Jobs collections concurrently through
// the campaign orchestrator (each with the machine's Table III variant).
func (s *Session) Prefetch(ms ...*machine.Machine) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	missing := s.cached(ms)
	if len(missing) == 0 {
		return nil
	}
	res, err := campaign.Run(context.Background(), s.plan(missing...), campaign.Options{
		Workers: max(s.Jobs, 1),
		Retain:  true,
	})
	if err != nil {
		return fmt.Errorf("analysis: collecting profiles: %w", err)
	}
	s.mu.Lock()
	for _, sr := range res.Specs {
		if sr.Status == campaign.StatusDone {
			s.profiles[sr.Spec.Machine] = sr.Profile
		}
	}
	s.mu.Unlock()
	if err := res.Err(); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	return nil
}

// plan is the campaign plan Prefetch runs to collect the given machines:
// each machine's Table III variant at the session's node size, with the
// default tuning and schedule.
func (s *Session) plan(machines ...string) campaign.Plan {
	return campaign.Plan{
		Machines: machines,
		Sizes:    []int{s.SizePerNode},
		Reps:     s.Reps,
		Workers:  s.Workers,
		Execute:  s.Execute,
	}
}

// LoadDir seeds the session's profile cache from a campaign output
// directory instead of running the suite, reading leniently: profiles
// that fail to decode are skipped and returned as FileErrors for the
// caller to report, so one torn file never blocks an analysis over an
// otherwise healthy campaign. Profiles are keyed by their "machine"
// metadata. A campaign directory may hold many profiles per machine, so
// per machine LoadDir keeps the first one (in file-name order) that
// matches what Prefetch would have collected: the same variant, tuning,
// size_per_node and schedule. A key a profile does not record does not
// rule it out. If a machine has profiles but none matches, LoadDir
// returns an error naming the machine and caches nothing. Profiles of
// unknown machines are ignored, and already-cached machines are not
// overwritten. It returns how many profiles were loaded into the cache.
func (s *Session) LoadDir(dir string) (int, []caliper.FileError, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	want := map[string]*campaign.RunSpec{} // nil: unknown machine
	picked := map[string]*caliper.Profile{}
	var machines []string // in first-seen order
	ferrs, err := caliper.WalkDirLenient(dir, func(path string, p *caliper.Profile) error {
		m, _ := p.Metadata["machine"].(string)
		if m == "" {
			return nil
		}
		spec, seen := want[m]
		if !seen {
			if specs, err := s.plan(m).Specs(); err == nil {
				spec = &specs[0]
			}
			want[m] = spec
			machines = append(machines, m)
		}
		if spec != nil && picked[m] == nil && matchesSpec(p.Metadata, spec) {
			picked[m] = p
		}
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("analysis: %w", err)
	}
	var unmatched []string
	for _, m := range machines {
		if spec := want[m]; spec != nil && picked[m] == nil {
			unmatched = append(unmatched, fmt.Sprintf("%s (want variant %s, tuning %s, size_per_node %d, schedule %s)",
				m, spec.Variant, spec.Tuning(), spec.Size, spec.Schedule))
		}
	}
	if len(unmatched) > 0 {
		return 0, nil, fmt.Errorf("analysis: no profile in %s matches the session for %s",
			dir, strings.Join(unmatched, "; "))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	loaded := 0
	for _, m := range machines {
		if p := picked[m]; p != nil {
			if _, ok := s.profiles[m]; !ok {
				s.profiles[m] = p
				loaded++
			}
		}
	}
	return loaded, ferrs, nil
}

// matchesSpec reports whether profile metadata md agrees with spec on
// every selection key md records.
func matchesSpec(md map[string]any, spec *campaign.RunSpec) bool {
	for key, want := range map[string]any{
		"variant":       spec.Variant,
		"tuning":        spec.Tuning(),
		"schedule":      spec.Schedule,
		"size_per_node": float64(spec.Size),
	} {
		got, ok := md[key]
		if n, isInt := got.(int); isInt {
			got = float64(n) // decoded profiles carry JSON numbers as float64
		}
		if ok && got != want {
			return false
		}
	}
	return true
}

// Profile returns the cached suite profile for machine m, running the
// suite on first use with the Table III variant for that machine.
func (s *Session) Profile(m *machine.Machine) (*caliper.Profile, error) {
	if err := s.Prefetch(m); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.profiles[m.Shorthand]
	if !ok {
		return nil, fmt.Errorf("analysis: no profile collected for %s", m)
	}
	return p, nil
}

// Thicket composes the profiles of the given machines, collecting any
// that are missing (concurrently when Jobs > 1). Compositions are
// memoized: repeating a request returns the same view, and a request
// that extends the previously composed machine sequence appends only
// the new profiles through the session's streaming Composer instead of
// re-ingesting the whole set. Views and their aggregation results are
// shared — treat them as read-only.
func (s *Session) Thicket(ms ...*machine.Machine) (*thicket.Thicket, error) {
	if err := s.Prefetch(ms...); err != nil {
		return nil, err
	}
	names := make([]string, len(ms))
	ps := make([]*caliper.Profile, 0, len(ms))
	for i, m := range ms {
		p, err := s.Profile(m)
		if err != nil {
			return nil, err
		}
		names[i] = m.Shorthand
		ps = append(ps, p)
	}
	key := strings.Join(names, "\x00")

	s.tkMu.Lock()
	defer s.tkMu.Unlock()
	if tk, ok := s.thickets[key]; ok {
		return tk, nil
	}
	var tk *thicket.Thicket
	if extendsComposed(names, s.composed) {
		if s.composer == nil {
			s.composer = thicket.NewComposer()
		}
		for _, p := range ps[len(s.composed):] {
			s.composer.Add(p)
		}
		s.composed = names
		tk = s.composer.Snapshot()
	} else {
		tk = thicket.FromProfiles(ps)
	}
	if s.thickets == nil {
		s.thickets = map[string]*thicket.Thicket{}
	}
	s.thickets[key] = tk
	return tk, nil
}

// extendsComposed reports whether the requested machine sequence starts
// with everything already in the session's composer — the case the
// incremental append path serves.
func extendsComposed(names, composed []string) bool {
	if len(names) < len(composed) {
		return false
	}
	for i, c := range composed {
		if names[i] != c {
			return false
		}
	}
	return true
}

// MachineThicket returns a single-machine Thicket.
func (s *Session) MachineThicket(m *machine.Machine) (*thicket.Thicket, error) {
	return s.Thicket(m)
}
