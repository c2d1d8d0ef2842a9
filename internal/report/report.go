// Package report renders the RAJA Performance Suite's classic run
// reports: the per-kernel timing report comparing variants (the suite's
// RAJAPerf-timing output), the checksum report verifying that all variants
// of each kernel compute the same answer (RAJAPerf-checksum), a CSV form
// of the timing data for external tooling, and the host strong-scaling
// table. Reports come from real host execution, not the hardware models.
//
// The package runs nothing itself. Plan and ScalingPlan describe the runs
// as campaign plans, package campaign executes them like every other
// host path (fault injection, retry, watchdogs, per-kernel panic
// isolation, telemetry), and FromProfiles and ScalingFromProfiles build
// the tables from the retained profiles. Each timing is the suite's
// single-shot per-kernel wall_time.
package report

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// KernelResult holds one kernel's measurements across variants.
type KernelResult struct {
	Name      string
	Times     map[kernels.VariantID]float64 // wall seconds
	Checksums map[kernels.VariantID]float64
	Skipped   []kernels.VariantID // declared variants that failed to run
}

// ChecksumConsistent reports whether all measured variants agree with the
// first variant's checksum within the suite tolerance.
func (r *KernelResult) ChecksumConsistent(order []kernels.VariantID) bool {
	var ref float64
	have := false
	for _, v := range order {
		cs, ok := r.Checksums[v]
		if !ok {
			continue
		}
		if !have {
			ref, have = cs, true
			continue
		}
		if !kernels.ChecksumsClose(cs, ref) {
			return false
		}
	}
	return true
}

// Report is the full run result.
type Report struct {
	Variants []kernels.VariantID
	Results  []KernelResult
}

// Plan turns base — its kernels, size, reps, workers, schedule, dispatch
// and services — into the campaign plan behind the reports: the Host
// machine under each variant (base.Variants, or the four host variants
// when empty), executed. Run it with campaign.Collect and pass the
// profiles to FromProfiles.
func Plan(base campaign.Plan) campaign.Plan {
	base.Machines = []string{machine.Host().Shorthand}
	if len(base.Variants) == 0 {
		base.Variants = []string{"Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP"}
	}
	base.Execute = true
	return base
}

// FromProfiles builds the report from the profiles of a Plan campaign,
// one per variant in plan order, with one row per kernel of names (empty
// = every registered kernel). A variant a kernel does not implement has
// no node; a kernel whose run failed has one carrying the suite's "error"
// metric and no timing, and is listed in Skipped. Either way the variant
// renders as "--".
func FromProfiles(names []string, profiles []*caliper.Profile) (*Report, error) {
	if len(names) == 0 {
		names = kernels.Names()
	}
	rep := &Report{}
	for _, p := range profiles {
		v, err := kernels.ParseVariant(fmt.Sprint(p.Metadata["variant"]))
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		rep.Variants = append(rep.Variants, v)
	}
	for _, name := range names {
		res := KernelResult{
			Name:      name,
			Times:     map[kernels.VariantID]float64{},
			Checksums: map[kernels.VariantID]float64{},
		}
		for i, p := range profiles {
			r := p.Find(name)
			if r == nil {
				continue
			}
			v := rep.Variants[i]
			t, ok := r.Metrics["wall_time"]
			if !ok || r.Metrics["error"] != 0 {
				res.Skipped = append(res.Skipped, v)
				continue
			}
			res.Times[v] = t
			res.Checksums[v] = r.Metrics["checksum"]
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// Timing renders the classic timing report: one row per kernel, one column
// per variant, times in milliseconds, plus the RAJA/Base ratio per
// back-end pair present.
func (r *Report) Timing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "Kernel")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %13s", v)
	}
	b.WriteString("\n")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-34s", res.Name)
		for _, v := range r.Variants {
			if t, ok := res.Times[v]; ok {
				fmt.Fprintf(&b, " %12.3fms", t*1000)
			} else {
				fmt.Fprintf(&b, " %13s", "--")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Checksums renders the checksum report with a PASS/FAIL consistency
// column, the suite's cross-variant correctness check.
func (r *Report) Checksums() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-22s %s\n", "Kernel", "Reference checksum", "Consistency")
	for _, res := range r.Results {
		var ref float64
		for _, v := range r.Variants {
			if cs, ok := res.Checksums[v]; ok {
				ref = cs
				break
			}
		}
		status := "PASS"
		if !res.ChecksumConsistent(r.Variants) {
			status = "FAIL"
		}
		if len(res.Times) == 0 {
			status = "SKIPPED"
		}
		fmt.Fprintf(&b, "%-34s %-22.12g %s\n", res.Name, ref, status)
	}
	return b.String()
}

// FailedKernels returns the kernels whose variants disagree on checksums.
func (r *Report) FailedKernels() []string {
	var out []string
	for _, res := range r.Results {
		if len(res.Times) > 0 && !res.ChecksumConsistent(r.Variants) {
			out = append(out, res.Name)
		}
	}
	sort.Strings(out)
	return out
}

// CSV renders the timing data as comma-separated values with a header row.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("kernel")
	for _, v := range r.Variants {
		b.WriteString("," + v.String())
	}
	b.WriteString("\n")
	for _, res := range r.Results {
		b.WriteString(res.Name)
		for _, v := range r.Variants {
			if t, ok := res.Times[v]; ok {
				fmt.Fprintf(&b, ",%.9f", t)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SpeedupOverBase returns, per kernel, the Base/RAJA time ratio for the
// given back-end pair (values below 1 mean the RAJA variant is slower —
// abstraction overhead).
func (r *Report) SpeedupOverBase(base, raja kernels.VariantID) map[string]float64 {
	out := map[string]float64{}
	for _, res := range r.Results {
		tb, ok1 := res.Times[base]
		tr, ok2 := res.Times[raja]
		if ok1 && ok2 && tr > 0 {
			out[res.Name] = tb / tr
		}
	}
	return out
}
