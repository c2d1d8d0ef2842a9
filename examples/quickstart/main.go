// Quickstart: run a handful of suite kernels in several variants on the
// host as one campaign plan, verify their checksums agree across
// variants, and print the analytic metrics — the smallest useful tour of
// the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rajaperf/internal/campaign"
	"rajaperf/internal/report"
)

func main() {
	names := []string{"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY", "Basic_PI_REDUCE"}
	plan := report.Plan(campaign.Plan{
		Kernels:  names,
		Variants: []string{"Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP", "RAJA_GPU"},
		Sizes:    []int{500_000},
		Reps:     5,
	})
	profiles, err := campaign.Collect(context.Background(), plan, campaign.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range names {
		m := profiles[0].Find(name).Metrics
		fmt.Printf("%s  (%.1f MB touched, %.2f flops/byte per rep)\n",
			name, (m["Bytes/Rep Read"]+m["Bytes/Rep Written"])/1e6, m["FlopsPerByte"])
	}
	rep, err := report.FromProfiles(names, profiles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\n", rep.Timing(), "\n", rep.Checksums())
	if failed := rep.FailedKernels(); len(failed) > 0 {
		log.Fatalf("checksum mismatches: %v", failed)
	}
}
