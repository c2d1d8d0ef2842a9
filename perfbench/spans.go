package main

// Spans of the traced run. The benchmark records them itself, around its
// calls into the program's public entry points; nothing inside the
// program is instrumented. They stay in memory and are written once at
// the end, in the Chrome trace-event format caliper/trace.go writes, so
// Perfetto and chrome://tracing open them.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rajaperf/internal/caliper"
)

// span is one timed call. Spans of one spec share the spec's ID; Lane
// places concurrently running specs on separate timeline rows.
type span struct {
	ID, Parent int
	Name       string // e.g. "campaign.Submit"
	Layer      string // the layer its self time is charged to
	Spec       string
	Lane       int
	Start, End time.Time
}

// spanLog collects spans. A nil *spanLog records nothing, so untraced
// iterations pass nil and pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span now and returns its ID (0 on a nil log).
func (l *spanLog) begin(name, layer string, parent int, spec string, lane int) int {
	if l == nil {
		return 0
	}
	return l.add(span{Parent: parent, Name: name, Layer: layer, Spec: spec, Lane: lane, Start: time.Now()})
}

// end closes span id now.
func (l *spanLog) end(id int) { l.endAt(id, time.Now()) }

// endAt closes span id at t.
func (l *spanLog) endAt(id int, t time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = t
	l.mu.Unlock()
}

// add records a span whose interval is already known and returns its ID.
func (l *spanLog) add(s span) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// graft records the spans of another log under parent: their IDs are
// renumbered, and the spans without a parent there get parent here.
func (l *spanLog) graft(from *spanLog, parent int) {
	if l == nil || from == nil {
		return
	}
	spans := from.snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// count returns the number of spans recorded so far.
func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per layer, the summed self time in seconds of the
// spans with IDs from on: each span's duration minus the part of its
// interval covered by the union of its children.
func selfTimes(spans []span, from int) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.ID < from || s.End.IsZero() {
			continue
		}
		out[s.Layer] += (s.End.Sub(s.Start) - covered(s, children[s.ID])).Seconds()
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeChromeTrace writes the spans as complete ("X") events with
// microsecond timestamps relative to the log's epoch. Each event's args
// carry its span ID, parent ID and spec, so a spec's spans can be
// selected together in the viewer.
func (l *spanLog) writeChromeTrace(path string) error {
	spans := l.snapshot()
	evs := []caliper.TraceEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "perfbench"},
	}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		lanes[s.Lane] = true
		args := map[string]any{"span": s.ID, "parent": s.Parent, "layer": s.Layer}
		if s.Spec != "" {
			args["spec"] = s.Spec
		}
		evs = append(evs, caliper.TraceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	for lane := range lanes {
		name := "benchmark"
		if lane > 0 {
			name = fmt.Sprintf("spec slot %d", lane)
		}
		evs = append(evs, caliper.TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name},
		})
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"epoch": l.epoch.UTC().Format(time.RFC3339Nano)},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
