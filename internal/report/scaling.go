package report

import (
	"fmt"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// ScalingRow is one kernel's strong-scaling measurement: wall time per
// worker count, the parallel efficiency at the largest count, and the
// lane load-imbalance percentage per worker count (the suite's imbalance
// service).
type ScalingRow struct {
	Kernel     string
	Times      map[int]float64 // workers -> wall seconds
	Efficiency float64         // t(min)*min / (t(max)*max)
	Imbalance  map[int]float64 // workers -> (max-avg)/max busy-time %
}

// ScalingWorkers are the worker counts of the host strong-scaling study.
var ScalingWorkers = []int{1, 2, 4, 8}

// ScalingPlan turns base into the campaign plan for one worker count of
// the strong-scaling study of RAJA_OpenMP on the host (the "kernel
// scalability with the increase in computational resources" evaluation
// of Sec II-C): the Host machine, w workers, the imbalance service on,
// executed. Kernels without a RAJA_OpenMP variant get no row.
func ScalingPlan(base campaign.Plan, w int) campaign.Plan {
	base.Machines = []string{machine.Host().Shorthand}
	base.Variants = []string{kernels.RAJAOpenMP.String()}
	base.Workers = w
	base.Services += "," + caliper.ServiceImbalance
	base.Execute = true
	return base
}

// ScalingFromProfiles builds the scaling rows from one ScalingPlan profile
// per worker count: profiles[i] ran with counts[i] workers, and counts
// ascend. Rows follow the first profile's kernel order; a kernel whose run
// failed at some count has no time there.
func ScalingFromProfiles(counts []int, profiles []*caliper.Profile) []ScalingRow {
	if len(profiles) == 0 {
		return nil
	}
	var rows []ScalingRow
	for _, rec := range profiles[0].Records {
		if len(rec.Path) != 2 { // the suite root
			continue
		}
		row := ScalingRow{Kernel: rec.Node(),
			Times: map[int]float64{}, Imbalance: map[int]float64{}}
		for i, p := range profiles {
			r := p.Find(row.Kernel)
			if r == nil || r.Metrics["error"] != 0 {
				continue
			}
			if t, ok := r.Metrics["wall_time"]; ok {
				row.Times[counts[i]] = t
				row.Imbalance[counts[i]] = r.Metrics["imbalance_pct"]
			}
		}
		lo, hi := counts[0], counts[len(counts)-1]
		if t := row.Times[hi]; t > 0 && hi > lo {
			row.Efficiency = row.Times[lo] * float64(lo) / (t * float64(hi))
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderScaling formats a scaling study as a table; workerCounts ascend,
// as for ScalingFromProfiles.
func RenderScaling(rows []ScalingRow, workerCounts []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "Kernel")
	for _, w := range workerCounts {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("w=%d", w))
	}
	fmt.Fprintf(&b, " %10s %10s\n", "efficiency", "imbalance")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s", r.Kernel)
		for _, w := range workerCounts {
			if t, ok := r.Times[w]; ok {
				fmt.Fprintf(&b, " %9.3fms", t*1000)
			} else {
				fmt.Fprintf(&b, " %10s", "--")
			}
		}
		maxW := workerCounts[len(workerCounts)-1]
		fmt.Fprintf(&b, " %9.0f%% %9.1f%%\n", r.Efficiency*100, r.Imbalance[maxW])
	}
	return b.String()
}
