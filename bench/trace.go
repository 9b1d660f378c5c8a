package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: which layer, what
// call, when it started and ended (ns since the trace began), and the
// span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id and the function
// that closes it.
func (t *tracer) begin(parent int, layer, name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = stop
		t.mu.Unlock()
	}
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of that interval its child spans
// cover (children of one parent may run concurrently, so their
// intervals are merged before subtracting).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// writeSummary prints each layer's span count and self time, largest
// first.
func (t *tracer) writeSummary(w io.Writer) {
	self := t.selfTimes()
	counts := map[string]int{}
	t.mu.Lock()
	for _, s := range t.spans {
		counts[s.Layer]++
	}
	t.mu.Unlock()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "# trace: layer self time (spans)\n")
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-10s %10.1f ms (%d)\n", l, ms(self[l]), counts[l])
	}
}

// writeFile saves the spans, the per-layer metrics and the host stamp
// as one JSON document.
func (t *tracer) writeFile(path string, host hostStamp, metrics map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Host    hostStamp          `json:"host"`
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span             `json:"spans"`
	}{host, metrics, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
