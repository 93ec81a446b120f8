package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public gcbench function. Spans of one campaign run or one request
// share a Run id; Parent links a span to the span that caused it.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Run    string        `json:"run,omitempty"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so untraced passes share the traced code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name, run string) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Run: run, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endWithTail closes span id and records a child span that fills its
// last d: a part of the call whose length the callee measured itself.
func (t *tracer) endWithTail(id int, layer, name string, d time.Duration) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	parent := t.spans[id-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: id, Layer: layer, Name: name, Run: parent.Run, Start: max(parent.Start, now-d), End: now})
}

// finished returns a copy of every closed span.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.finished())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (children may overlap, so the
// covered part is the union of their intervals).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		lo, hi := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerStats groups closed spans by "layer" and by "layer/name": each
// group's summed self time and its individual span durations.
type layerStats struct {
	self map[string]time.Duration
	durs map[string][]time.Duration
}

func summarize(t *tracer) layerStats {
	spans := t.finished()
	self := selfTimes(spans)
	ls := layerStats{self: map[string]time.Duration{}, durs: map[string][]time.Duration{}}
	for _, s := range spans {
		for _, k := range []string{s.Layer, s.Layer + "/" + s.Name} {
			ls.self[k] += self[s.ID]
			ls.durs[k] = append(ls.durs[k], s.dur())
		}
	}
	return ls
}

// selfSeconds is the summed self time of a layer (or layer/name) group.
func (ls layerStats) selfSeconds(key string) float64 { return ls.self[key].Seconds() }

// count is the number of spans in a group.
func (ls layerStats) count(key string) int { return len(ls.durs[key]) }
