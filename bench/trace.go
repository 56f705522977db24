package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own yet).
// Start and End are nanoseconds since the tracer was created; Parent is
// the id of the span that caused this one (0 = root) and Op groups the
// spans of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for the
// serve-mixed client goroutines to share.
//
//hetpnoc:lockorder serveInstance.mu tracer.mu a client records a miss sample and closes its span one after the other, never one lock inside the other
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// spanNS is the duration of closed span id.
func (t *tracer) spanNS(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End - t.spans[id-1].Start
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// durationsUS returns the durations, in microseconds, of every closed
// span called name, in recording order.
func (t *tracer) durationsUS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// medianUS is the median duration of the spans called name, or 0 when
// none were recorded.
func (t *tracer) medianUS(name string) float64 {
	d := t.durationsUS(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// (parallel batch groups under one op) are merged first, so covered time
// is never subtracted twice and self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSummary aggregates the spans sharing one name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	byName := make(map[string]*layerSummary)
	var order []string
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		ls, ok := byName[s.Name]
		if !ok {
			ls = &layerSummary{Name: s.Name}
			byName[s.Name] = ls
			order = append(order, s.Name)
		}
		ls.Count++
		ls.TotalMS += float64(s.End-s.Start) / 1e6
		ls.SelfMS += float64(self[s.ID]) / 1e6
	}
	sort.Strings(order)
	out := make([]layerSummary, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// maxSpansWritten bounds the trace file: serve-mixed records one span
// per request, and a few tens of thousands are plenty to read a
// timeline from. The per-layer summary always covers every span.
const maxSpansWritten = 20000

type traceFile struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Spans     int            `json:"spans_recorded"`
	Truncated bool           `json:"spans_truncated"`
	Layers    []layerSummary `json:"layers"`
	SpanList  []span         `json:"spans"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: len(spans), Layers: summarize(spans), SpanList: spans}
	if len(spans) > maxSpansWritten {
		tf.SpanList, tf.Truncated = spans[:maxSpansWritten], true
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
