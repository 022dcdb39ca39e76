package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span. Work carries the span's
// unit count where one exists (interactions for an engine call, bytes
// for a checkpoint save).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps every span of a run in memory; they are written out once,
// when the run ends. It is safe for concurrent use: engine spans arrive
// from the treecode's walk workers.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open reserves a span ID and returns it with the start time, so that
// children can name their parent before it ends.
func (t *tracer) open() (id, start int64) { return t.ids.Add(1), t.now() }

// close records the span opened as (id, start).
func (t *tracer) close(id, parent int64, name string, start, work int64) {
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: t.now(), Work: work}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished span measured outside the tracer.
func (t *tracer) record(parent int64, name string, start, end time.Time, work int64) {
	s := span{ID: t.ids.Add(1), Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Work: work}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by ID.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeTrace writes the run metadata and every span as one JSON
// document.
func writeTrace(path string, meta runMeta, spans []span) error {
	data, err := json.Marshal(struct {
		Meta  runMeta `json:"meta"`
		Spans []span  `json:"spans"`
	}{meta, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTree indexes spans by parent for the per-layer arithmetic.
type spanTree struct {
	children map[int64][]span
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{children: make(map[int64][]span)}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// kids returns parent's direct children named name, in ID order.
func (t spanTree) kids(parent int64, name string) []span {
	var out []span
	for _, s := range t.children[parent] {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by at least one of the
// intervals; overlapping and nested intervals count once.
func unionLength(ivs []interval) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	for i := 0; i < len(s); {
		lo, hi := s[i].lo, s[i].hi
		for i++; i < len(s) && s[i].lo <= hi; i++ {
			hi = max(hi, s[i].hi)
		}
		total += hi - lo
	}
	return total
}

// selfTime returns the part of parent that none of the children cover:
// the parent's duration minus the union of the children clipped to it.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		clipped = append(clipped, interval{max(c.lo, parent.lo), min(c.hi, parent.hi)})
	}
	return parent.hi - parent.lo - unionLength(clipped)
}

func intervals(spans []span) []interval {
	out := make([]interval, len(spans))
	for i, s := range spans {
		out[i] = s.interval()
	}
	return out
}
