package main

// Correctness checks. Each counts the values it checked and the values
// that failed; wrong_answer_frac is failures over values checked.

import (
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"rajaperf/internal/caliper"
	"rajaperf/internal/kernels"
)

// checks accumulates check counts over iterations.
type checks struct {
	Checked            int // values checked, all checks together
	ChecksumMismatches int
	ModelMismatches    int
	TMAViolations      int
	SummaryFailed      int
}

func (c *checks) add(o checks) {
	c.Checked += o.Checked
	c.ChecksumMismatches += o.ChecksumMismatches
	c.ModelMismatches += o.ModelMismatches
	c.TMAViolations += o.TMAViolations
	c.SummaryFailed += o.SummaryFailed
}

// wrong is the number of checked values that failed.
func (c checks) wrong() int {
	return c.ChecksumMismatches + c.ModelMismatches + c.TMAViolations + c.SummaryFailed
}

// kernelMetric returns kernel name → value of metric over the profile's
// kernel nodes (path suite/<kernel>).
func kernelMetric(p *caliper.Profile, metric string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range p.Records {
		if len(r.Path) != 2 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out[r.Path[1]] = v
		}
	}
	return out
}

// checkChecksums compares every RAJA_* kernel checksum with the Base_Seq
// checksum of the same machine and size. RAJA_Seq runs the same
// operations in the same order as Base_Seq, so it must agree bit for bit;
// parallel variants may reassociate reductions and must agree within
// kernels.ChecksumsClose. A RAJA kernel without a Base_Seq checksum to
// compare with is a mismatch, and so is a campaign with no RAJA checksum
// at all: nothing checked is not a pass.
func checkChecksums(profiles []*caliper.Profile) checks {
	type key struct {
		machine string
		size    float64
	}
	keyOf := func(p *caliper.Profile) key {
		n, _ := numMeta(p.Metadata, "size_per_node")
		return key{strMeta(p.Metadata, "machine"), n}
	}
	base := map[key]map[string]float64{}
	for _, p := range profiles {
		if strMeta(p.Metadata, "variant") == kernels.BaseSeq.String() {
			base[keyOf(p)] = kernelMetric(p, "checksum")
		}
	}
	var c checks
	for _, p := range profiles {
		variant := strMeta(p.Metadata, "variant")
		if !strings.HasPrefix(variant, "RAJA_") {
			continue
		}
		ref := base[keyOf(p)]
		bitwise := variant == kernels.RAJASeq.String()
		for name, v := range kernelMetric(p, "checksum") {
			want, ok := ref[name]
			c.Checked++
			if !ok || bitwise && math.Float64bits(v) != math.Float64bits(want) ||
				!bitwise && !kernels.ChecksumsClose(v, want) {
				c.ChecksumMismatches++
			}
		}
	}
	if c.Checked == 0 {
		c.Checked, c.ChecksumMismatches = 1, 1
	}
	return c
}

// tmaTuple is the top-down level-1/level-2 split every CPU-modeled kernel
// node carries.
var tmaTuple = []string{"frontend_bound", "bad_speculation", "retiring", "core_bound", "memory_bound"}

// checkTMA checks that every TMA 5-tuple lies in [0,1] and sums to 1.
// Every workload models a CPU machine, so profiles without a single tuple
// count as one violation.
func checkTMA(profiles []*caliper.Profile) checks {
	var c checks
	for _, p := range profiles {
		for _, r := range p.Records {
			var sum float64
			ok := true
			bad := false
			for _, m := range tmaTuple {
				v, has := r.Metrics[m]
				if !has {
					ok = false
					break
				}
				if !(v >= 0 && v <= 1) {
					bad = true
				}
				sum += v
			}
			if !ok {
				continue
			}
			c.Checked++
			if bad || math.Abs(sum-1) > 1e-9 {
				c.TMAViolations++
			}
		}
	}
	if c.Checked == 0 {
		c.Checked, c.TMAViolations = 1, 1
	}
	return c
}

// isWallClock reports whether a metric is measured wall-clock time rather
// than a modeled value: the root suite region's time and executed kernels'
// wall_time.
func isWallClock(path []string, metric string) bool {
	return metric == "wall_time" || len(path) == 1 && path[0] == "suite" && metric == "time"
}

// modelDigest is the modeled part of one profile in canonical order:
// records by path, metrics by name, wall-clock metrics left out. It keeps
// the values' bits in a pointer-free slice, so holding a whole reference
// campaign costs the garbage collector nothing to scan.
type modelDigest struct {
	layout uint64   // FNV-1a over the (path, metric) sequence
	bits   []uint64 // the values, in that sequence
}

func digest(p *caliper.Profile) modelDigest {
	recs := append([]caliper.Record(nil), p.Records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].PathKey() < recs[j].PathKey() })
	h := fnv.New64a()
	var d modelDigest
	for _, r := range recs {
		names := make([]string, 0, len(r.Metrics))
		for m := range r.Metrics {
			if !isWallClock(r.Path, m) {
				names = append(names, m)
			}
		}
		sort.Strings(names)
		for _, m := range names {
			h.Write([]byte(r.PathKey()))
			h.Write([]byte{0})
			h.Write([]byte(m))
			h.Write([]byte{0})
			d.bits = append(d.bits, math.Float64bits(r.Metrics[m]))
		}
	}
	d.layout = h.Sum64()
	return d
}

// checkModelIdentity checks that every modeled metric of every reference
// spec is present, bit for bit, in the profile of the same spec among
// got. Profiles are matched by their campaign.spec metadata; when a spec
// is missing or its records or metrics differ, all of its values fail. An
// empty reference checks nothing and counts as one mismatch.
func checkModelIdentity(got []*caliper.Profile, ref map[string]modelDigest) checks {
	if len(ref) == 0 {
		return checks{Checked: 1, ModelMismatches: 1}
	}
	byID := make(map[string]*caliper.Profile, len(got))
	for _, p := range got {
		byID[strMeta(p.Metadata, "campaign.spec")] = p
	}
	var c checks
	for id, want := range ref {
		c.Checked += len(want.bits)
		gp := byID[id]
		if gp == nil {
			c.ModelMismatches += len(want.bits)
			continue
		}
		d := digest(gp)
		if d.layout != want.layout || len(d.bits) != len(want.bits) {
			c.ModelMismatches += len(want.bits)
			continue
		}
		for i, b := range want.bits {
			if d.bits[i] != b {
				c.ModelMismatches++
			}
		}
	}
	return c
}

// summaryClaims is the number of paper claims analysis.Session.Summary
// evaluates.
const summaryClaims = 5

// checkSummary counts the [PASS] and [FAIL] claim lines of
// analysis.Session.Summary output. Each claim missing from the output
// counts as failed.
func checkSummary(out string) checks {
	var c checks
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "[PASS]"):
			c.Checked++
		case strings.HasPrefix(line, "[FAIL]"):
			c.Checked++
			c.SummaryFailed++
		}
	}
	if missing := summaryClaims - c.Checked; missing > 0 {
		c.Checked += missing
		c.SummaryFailed += missing
	}
	return c
}
