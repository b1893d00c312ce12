package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded from
// outside the module. Spans of one run share the run id; parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
	Lanes  int     `json:"lanes,omitempty"` // concurrent callers under a root
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil tracer records nothing, so untraced phases call the same code.
type tracer struct {
	run    string
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// root opens a span that concurrent callers (lanes of them) nest under.
func (t *tracer) root(name string, lanes int) int {
	id := t.start(name, 0)
	if t != nil {
		t.mu.Lock()
		t.spans[id-1].Lanes = lanes
		t.mu.Unlock()
	}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// durations returns the closed spans named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// lastRoot is the id of the most recently opened root span.
func (t *tracer) lastRoot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Parent == 0 {
			return t.spans[i].ID
		}
	}
	return 0
}

// selfTimes returns every closed span's self time: its duration minus
// the part of that interval its children cover.
func (t *tracer) selfTimes() map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[int]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	total, end := 0.0, -1.0
	for _, s := range spans {
		lo := s.Start
		if lo < end {
			lo = end
		}
		if s.End > lo {
			total += s.End - lo
			end = s.End
		}
	}
	return total
}

// accountedFraction is the summed self time of the layer spans under
// root ÷ the root's wall time × its lanes: how much of the phase the
// layer spans account for. Gaps are the benchmark's own work, sleeps
// between polls, and scheduling.
func (t *tracer) accountedFraction(root int) float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if root == 0 {
		return 0
	}
	r := t.spans[root-1]
	lanes := max(r.Lanes, 1)
	under := map[int]bool{root: true}
	acc := 0.0
	for _, s := range t.spans { // ids ascend, so parents come first
		if under[s.Parent] {
			under[s.ID] = true
			acc += self[s.ID]
		}
	}
	return acc / ((r.End - r.Start) * float64(lanes))
}

// selfByLayer sums self time per layer, the span-name prefix before the
// first dot, over every non-root span.
func (t *tracer) selfByLayer() map[string]float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, l := range traceLayers {
		out[l] = 0
	}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		if _, ok := out[layer]; ok {
			out[layer] += self[s.ID]
		}
	}
	return out
}

// traceLayers are the modules the traced run attributes self time to.
var traceLayers = []string{
	"progen", "interp", "toolchain", "machine", "pmc", "pintool", "core",
	"stats", "experiments", "results", "campaignd", "wal", "atomicio",
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
