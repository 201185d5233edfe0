package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval the benchmark recorded around a call into the
// program. Times are nanoseconds since the tracer's epoch. Parent 0 marks a
// root span; Req groups the spans of one job, campaign or live session.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Rollup summarises many short spans of one name under one request: the
// per-call spans of a replay are reduced to these as they end, so a job with
// a million calls costs three counters instead of a million spans.
type Rollup struct {
	Name   string `json:"rollup"`
	Req    string `json:"req"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
	SelfNS int64  `json:"self_ns"`
}

// Tracer keeps spans in memory for the whole run; Write puts them on disk
// once the run is over. It is safe for concurrent use.
type Tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []Span
	rollups []Rollup
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now returns the current time on the tracer's clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its ID; End closes it.
func (t *Tracer) Begin(name string, parent int, req string) int {
	start := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: -1})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	end := t.Now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Add records a span whose times were taken elsewhere and returns its ID.
func (t *Tracer) Add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// AddRollup records a reduced group of spans.
func (t *Tracer) AddRollup(r Rollup) {
	t.mu.Lock()
	t.rollups = append(t.rollups, r)
	t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Rollups returns a copy of the recorded rollups.
func (t *Tracer) Rollups() []Rollup {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Rollup(nil), t.rollups...)
}

// Write stores the spans and rollups as JSON lines in path.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range t.Rollups() {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTime is a span's length minus the part of it that its children
// cover. Children may overlap each other or nest inside one another; each
// covered nanosecond counts once, and any part of a child outside the span
// is ignored.
func selfTime(s Span, children []Span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered := int64(0)
	var curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return s.Dur() - covered
}

// spanIndex answers the per-layer queries over a finished trace.
type spanIndex struct {
	byName   map[string][]Span
	children map[int][]Span
}

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{byName: map[string][]Span{}, children: map[int][]Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// named returns the spans called name.
func (ix spanIndex) named(name string) []Span { return ix.byName[name] }

// childrenNamed returns s's direct children called name.
func (ix spanIndex) childrenNamed(s Span, name string) []Span {
	var out []Span
	for _, c := range ix.children[s.ID] {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// totalNS sums the spans' lengths.
func totalNS(spans []Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Dur()
	}
	return n
}

// durationsS returns the spans' lengths in seconds.
func durationsS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / 1e9
	}
	return out
}
