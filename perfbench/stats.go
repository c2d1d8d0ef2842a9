package main

import (
	"math"
	"sort"

	"rajaperf/internal/telemetry"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of the positive values of xs, or 0
// when there are none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// finite maps NaN and ±Inf to 0, so every reported value encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// counterSum sums every counter in s whose base name (labels stripped)
// is base, so labelled series such as fabric.assigned{shard=N} fold into
// one number.
func counterSum(s telemetry.Snapshot, base string) float64 {
	var v float64
	for _, c := range s.Counters {
		if b, _ := telemetry.SplitName(c.Name); b == base {
			v += c.Value
		}
	}
	return v
}

// gauge returns the named gauge from s, or 0 when absent.
func gauge(s telemetry.Snapshot, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// histQuantile returns the q-quantile of the named histogram in s (in the
// histogram's unit, nanoseconds for every *_ns series), or 0 when absent
// or empty.
func histQuantile(s telemetry.Snapshot, name string, q float64) float64 {
	for _, h := range s.Hists {
		if h.Name == name && h.Hist.Count > 0 {
			return float64(h.Hist.Quantile(q))
		}
	}
	return 0
}

// numMeta reads a numeric profile metadata value, which is an int in a
// freshly recorded profile and a float64 after a JSON round trip.
func numMeta(md map[string]any, key string) (float64, bool) {
	switch v := md[key].(type) {
	case int:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// strMeta reads a string profile metadata value.
func strMeta(md map[string]any, key string) string {
	s, _ := md[key].(string)
	return s
}
