// Package campaign plans, executes, and records multi-run performance
// collection — the many-run methodology the paper's Thicket analysis
// depends on (Sec II-D, Fig 5–10), where insight comes from composing
// dozens of profiles across machines × variants × tunings × sizes.
//
// The package is the top of an explicitly layered run stack:
//
//   - Plan (this file): a declarative cross-product of machines,
//     variants, GPU-block tunings, sizes, and schedules, with
//     include/exclude filters, that expands to a deterministic list of
//     RunSpecs. Expansion is pure; the same Plan always yields the same
//     specs in the same order.
//   - Execute (orchestrator.go): a bounded-concurrency orchestrator that
//     runs independent specs through suite.RunContext, each on its own
//     raja.Pool so in-flight runs do not contend for executor lanes, with
//     per-spec fault isolation — one failing run never aborts the
//     campaign.
//   - Record (manifest.go): each completed profile streams to the output
//     directory as it finishes, and a manifest tracks per-spec status so
//     an interrupted campaign resumes where it left off.
package campaign

import (
	"fmt"
	"path"
	"strconv"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/suite"
)

// Plan declares a campaign: the cross-product of machines × variants ×
// GPU-block tunings × sizes × schedules, each cell one suite run. Empty
// axes default (see Specs); Include/Exclude filter the expanded specs by
// ID. The scalar fields apply to every run.
type Plan struct {
	// Machines are machine shorthands (machine.ByName). Required.
	Machines []string
	// Variants are variant names (kernels.ParseVariant). Empty means the
	// machine's Table III default variant (suite.DefaultVariant).
	Variants []string
	// GPUBlocks are block-size tunings applied to GPU variants (0 =
	// raja.DefaultBlock). Non-GPU variants carry no tuning axis and
	// expand to a single spec regardless. Empty means {0}.
	GPUBlocks []int
	// Sizes are node problem sizes (0 = suite.DefaultSizePerNode).
	// Empty means {0}.
	Sizes []int
	// Schedules are loop-schedule names (raja.ParseSchedule). Empty
	// means {"default"}.
	Schedules []string

	Reps    int      // per-kernel repetition override (0 = kernel default)
	Workers int      // execution workers per run (0 = orchestrator decides)
	Kernels []string // kernel subset; empty = whole suite
	Execute bool     // run real computations (uniform across the plan)
	// Dispatch is the RAJA dispatch mode (kernels.ParseDispatch; "" =
	// mono) and Services the measurement services (caliper.ParseServices;
	// "" = wall-clock only) of every run. Neither enters the spec ID.
	Dispatch string
	Services string

	// Include keeps only specs whose ID matches at least one pattern;
	// empty keeps everything. Exclude then drops specs matching any
	// pattern. A pattern is a path.Match glob over the spec ID, with a
	// plain substring match as fallback (see matchSpec).
	Include []string
	Exclude []string
}

// RunSpec is one fully resolved cell of a Plan: everything needed to run
// one suite configuration, in serializable form so the manifest can
// persist it. Size and GPUBlock are normalized (never zero after Specs).
type RunSpec struct {
	Machine  string   `json:"machine"`
	Variant  string   `json:"variant"`
	GPUBlock int      `json:"gpu_block,omitempty"`
	Size     int      `json:"size"`
	Schedule string   `json:"schedule"`
	Reps     int      `json:"reps,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Kernels  []string `json:"kernels,omitempty"`
	Execute  bool     `json:"execute,omitempty"`
	Dispatch string   `json:"dispatch,omitempty"`
	Services string   `json:"services,omitempty"`
}

// Tuning returns the spec's tuning label, matching the suite's "tuning"
// profile metadata: "block_N" for GPU variants, "default" otherwise.
func (s RunSpec) Tuning() string {
	if s.GPUBlock > 0 {
		return fmt.Sprintf("block_%d", s.GPUBlock)
	}
	return "default"
}

// ID returns the spec's deterministic identity, used as the manifest key
// and the profile file stem, e.g.
// "P9-V100_RAJA_GPU_block_256_n32000000_default".
func (s RunSpec) ID() string {
	return strings.Join([]string{
		s.Machine, s.Variant, s.Tuning(), "n" + strconv.Itoa(s.Size), s.Schedule,
	}, "_")
}

// FileName returns the profile file name the record layer writes for this
// spec.
func (s RunSpec) FileName() string { return s.ID() + caliper.FileExt }

// Config resolves the spec into a runnable suite configuration. The
// executor pool is left nil for the orchestrator to wire.
func (s RunSpec) Config() (suite.Config, error) {
	m, err := machine.ByName(s.Machine)
	if err != nil {
		return suite.Config{}, fmt.Errorf("campaign: spec %s: %w", s.ID(), err)
	}
	v, err := kernels.ParseVariant(s.Variant)
	if err != nil {
		return suite.Config{}, fmt.Errorf("campaign: spec %s: %w", s.ID(), err)
	}
	sched, ok := raja.ParseSchedule(s.Schedule)
	if !ok {
		return suite.Config{}, fmt.Errorf("campaign: spec %s: unknown schedule %q", s.ID(), s.Schedule)
	}
	disp, err := kernels.ParseDispatch(s.Dispatch)
	if err != nil {
		return suite.Config{}, fmt.Errorf("campaign: spec %s: %w", s.ID(), err)
	}
	svc, err := caliper.ParseServices(s.Services)
	if err != nil {
		return suite.Config{}, fmt.Errorf("campaign: spec %s: %w", s.ID(), err)
	}
	return suite.Config{
		Machine:     m,
		Variant:     v,
		GPUBlock:    s.GPUBlock,
		SizePerNode: s.Size,
		Reps:        s.Reps,
		Workers:     s.Workers,
		Kernels:     s.Kernels,
		Execute:     s.Execute,
		Schedule:    sched,
		Dispatch:    disp,
		Services:    svc,
	}, nil
}

// Specs expands the plan into its deterministic RunSpec list: the
// cross-product in axis order (machines, then variants, tunings, sizes,
// schedules), normalized (GPU block and size defaults resolved, non-GPU
// variants collapsed to one tuning), filtered by Include/Exclude, and
// deduplicated by ID. It validates every axis value, so a bad plan fails
// before any run starts. Dispatch and Services are stored canonically,
// with the defaults as "", so a plan that spells them out records the
// same manifest as one that leaves them empty.
func (p Plan) Specs() ([]RunSpec, error) {
	if len(p.Machines) == 0 {
		return nil, fmt.Errorf("campaign: plan needs at least one machine")
	}
	blocks := p.GPUBlocks
	if len(blocks) == 0 {
		blocks = []int{0}
	}
	sizes := p.Sizes
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	schedules := p.Schedules
	if len(schedules) == 0 {
		schedules = []string{raja.ScheduleDefault.String()}
	}
	for _, sc := range schedules {
		if _, ok := raja.ParseSchedule(sc); !ok {
			return nil, fmt.Errorf("campaign: unknown schedule %q", sc)
		}
	}
	for _, vn := range p.Variants {
		if _, err := kernels.ParseVariant(vn); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	disp, err := kernels.ParseDispatch(p.Dispatch)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	dispatch := ""
	if disp != kernels.DispatchMono {
		dispatch = disp.String()
	}
	svc, err := caliper.ParseServices(p.Services)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if svc.Enabled(caliper.ServiceTrace) { // only single-run mode writes a trace out
		return nil, fmt.Errorf("campaign: the %s service needs single-run mode", caliper.ServiceTrace)
	}

	var specs []RunSpec
	seen := map[string]bool{}
	for _, mn := range p.Machines {
		m, err := machine.ByName(mn)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		variants := p.Variants
		if len(variants) == 0 {
			variants = []string{suite.DefaultVariant(m).String()}
		}
		for _, vn := range variants {
			v, _ := kernels.ParseVariant(vn)
			tunings := blocks
			if !v.IsGPU() {
				// Non-GPU variants carry no block-size axis.
				tunings = []int{0}
			}
			for _, block := range tunings {
				if v.IsGPU() && block <= 0 {
					block = raja.DefaultBlock
				}
				for _, size := range sizes {
					if size <= 0 {
						size = suite.DefaultSizePerNode
					}
					for _, sched := range schedules {
						s := RunSpec{
							Machine:  m.Shorthand,
							Variant:  vn,
							GPUBlock: block,
							Size:     size,
							Schedule: sched,
							Reps:     p.Reps,
							Workers:  p.Workers,
							Kernels:  p.Kernels,
							Execute:  p.Execute,
							Dispatch: dispatch,
							Services: svc.String(),
						}
						id := s.ID()
						if seen[id] || !p.keep(id) {
							continue
						}
						seen[id] = true
						specs = append(specs, s)
					}
				}
			}
		}
	}
	return specs, nil
}

// keep applies the Include/Exclude filters to a spec ID.
func (p Plan) keep(id string) bool {
	if len(p.Include) > 0 {
		ok := false
		for _, pat := range p.Include {
			if matchSpec(pat, id) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, pat := range p.Exclude {
		if matchSpec(pat, id) {
			return false
		}
	}
	return true
}

// matchSpec matches a filter pattern against a spec ID: a path.Match glob
// when the pattern parses as one, otherwise a substring test — so
// "P9-V100" and "*RAJA_GPU*n32000000*" both do what they look like.
func matchSpec(pattern, id string) bool {
	if ok, err := path.Match(pattern, id); err == nil && ok {
		return true
	}
	return strings.Contains(id, pattern)
}
