package otrace

import (
	"sort"
	"sync"
	"time"
)

// Store is the bounded in-process trace repository behind
// /debug/traces. Every started trace is tracked immediately (so a
// long-running campaign's trace is inspectable mid-flight); when the
// store is over capacity, the oldest *boring* finished trace is evicted
// first — tail-based sampling. A trace is protected from boring-first
// eviction when any of:
//
//   - a span in it failed (Status "error"),
//   - the HTTP layer marked it explicitly (429s and 5xx responses),
//   - its root duration landed in the slowest decile of recent roots:
//     strictly longer than their p90. A root that only ties the p90 is
//     not slow, so a flood of equally fast roots protects none of them
//     and cannot push a genuinely slow trace out.
//
// Protected traces are only evicted when no boring finished trace
// remains, and in-flight traces (root not yet ended) outlive both, so
// an async job's spans always have somewhere to land.
type Store struct {
	capacity int
	maxSpans int

	mu     sync.Mutex
	traces map[TraceID]*Trace
	order  []TraceID // insertion order, oldest first

	// durs is a sliding window of recent root durations, the slowest-
	// decile reference. Fixed size, overwritten circularly.
	durs  []time.Duration
	durAt int
	durN  int

	started int64
	evicted int64
}

// DefaultCapacity bounds retained traces when Config.Capacity is 0.
const DefaultCapacity = 512

// DefaultMaxSpans bounds spans per trace when Config.MaxSpans is 0: a
// campaign over hundreds of runs with per-iteration children must not
// hold the process hostage.
const DefaultMaxSpans = 4096

// slowWindow is how many recent root durations the slowest-decile
// estimate looks back over.
const slowWindow = 256

// NewStore returns a Store retaining up to capacity traces
// (DefaultCapacity if <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		maxSpans: DefaultMaxSpans,
		traces:   make(map[TraceID]*Trace),
		durs:     make([]time.Duration, slowWindow),
	}
}

// SetMaxSpans overrides the per-trace span cap (testing and tight
// deployments).
func (st *Store) SetMaxSpans(n int) {
	if n > 0 {
		st.mu.Lock()
		st.maxSpans = n
		st.mu.Unlock()
	}
}

// StartTrace opens a new trace and its root span. tid selects the
// propagated trace id (zero = generate one); parent is the remote
// parent span id from an incoming traceparent (zero = locally rooted).
// The returned span's End() finalizes the tail-sampling decision.
//
// Nil stores start nothing: both return values are nil and every
// downstream Span call no-ops, so callers need no store-presence
// branches.
func (st *Store) StartTrace(name, kind string, tid TraceID, parent SpanID, attrs ...Attr) (*Trace, *Span) {
	if st == nil {
		return nil, nil
	}
	if tid.IsZero() {
		tid = NewTraceID()
	}
	st.mu.Lock()
	maxSpans := st.maxSpans
	st.mu.Unlock()
	tr := &Trace{id: tid, start: time.Now(), store: st, maxSpans: maxSpans}
	sp := newSpan(tr, SpanID{}, name, kind, attrs)
	sp.data.RemoteParent = parent

	st.mu.Lock()
	st.started++
	if _, ok := st.traces[tid]; ok {
		// A trace id replayed by a client collides; the newer trace wins
		// and the older one is dropped from the index.
		st.removeLocked(tid)
	}
	st.traces[tid] = tr
	st.order = append(st.order, tid)
	st.evictLocked()
	st.mu.Unlock()
	return tr, sp
}

// rootEnd records the root duration for the slow-decile reference and
// flags slow traces as protected. Called by Span.End on root spans.
func (t *Trace) rootEnd(root SpanData) {
	st := t.store
	if st == nil {
		return
	}
	st.mu.Lock()
	threshold, have := st.slowThresholdLocked()
	st.durs[st.durAt] = root.Duration
	st.durAt = (st.durAt + 1) % len(st.durs)
	if st.durN < len(st.durs) {
		st.durN++
	}
	st.mu.Unlock()

	t.mu.Lock()
	t.rootEnded = true
	if have && root.Duration > threshold {
		t.protected = true
	}
	if root.Status == StatusError {
		t.protected = true
	}
	t.mu.Unlock()
}

// slowThresholdLocked returns the p90 of the recent root durations.
// Callers hold st.mu. have is false until enough samples accumulated
// for a decile to mean anything.
func (st *Store) slowThresholdLocked() (time.Duration, bool) {
	if st.durN < 10 {
		return 0, false
	}
	window := make([]time.Duration, st.durN)
	copy(window, st.durs[:st.durN])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window[(st.durN*9)/10], true
}

// evictLocked enforces the capacity bound: oldest boring finished trace
// first, then oldest protected finished trace, then (only if everything
// is still in flight) the oldest trace outright.
func (st *Store) evictLocked() {
	for len(st.order) > st.capacity {
		victim := TraceID{}
		// Pass 1: oldest finished, unprotected.
		for _, id := range st.order {
			tr := st.traces[id]
			tr.mu.Lock()
			ok := tr.rootEnded && !tr.protected
			tr.mu.Unlock()
			if ok {
				victim = id
				break
			}
		}
		// Pass 2: oldest finished, protected.
		if victim.IsZero() {
			for _, id := range st.order {
				tr := st.traces[id]
				tr.mu.Lock()
				ok := tr.rootEnded
				tr.mu.Unlock()
				if ok {
					victim = id
					break
				}
			}
		}
		// Pass 3: everything in flight — drop the oldest.
		if victim.IsZero() {
			victim = st.order[0]
		}
		st.removeLocked(victim)
		st.evicted++
	}
}

// removeLocked deletes one trace from the map and order slice.
func (st *Store) removeLocked(id TraceID) {
	if _, ok := st.traces[id]; !ok {
		return
	}
	delete(st.traces, id)
	for i, o := range st.order {
		if o == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// Get returns the trace with the given id, if retained.
func (st *Store) Get(id TraceID) (*Trace, bool) {
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tr, ok := st.traces[id]
	return tr, ok
}

// Summary is one row of the /debug/traces index.
type Summary struct {
	TraceID TraceID   `json:"traceId"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind,omitempty"`
	Start   time.Time `json:"start"`
	// DurationMs is the root span's duration (0 while in flight).
	DurationMs float64 `json:"durationMs"`
	Status     string  `json:"status,omitempty"`
	Spans      int     `json:"spans"`
	Dropped    int     `json:"dropped,omitempty"`
	// Finished is false while the root span is still open.
	Finished bool `json:"finished"`
	// Protected marks traces the tail sampler will evict last (errors,
	// marked 429s/5xx, slowest decile).
	Protected bool `json:"protected,omitempty"`
}

// List returns a summary of every retained trace, newest first.
func (st *Store) List() []Summary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	ids := append([]TraceID(nil), st.order...)
	trs := make([]*Trace, len(ids))
	for i, id := range ids {
		trs[i] = st.traces[id]
	}
	st.mu.Unlock()

	out := make([]Summary, 0, len(trs))
	for i := len(trs) - 1; i >= 0; i-- {
		tr := trs[i]
		s := Summary{TraceID: tr.id, Start: tr.start}
		tr.mu.Lock()
		s.Spans = len(tr.spans)
		s.Dropped = tr.dropped
		s.Finished = tr.rootEnded
		s.Protected = tr.protected
		for _, sp := range tr.spans {
			if sp.Parent.IsZero() {
				// The root span: only present once it has ended.
				s.Name, s.Kind = sp.Name, sp.Kind
				s.DurationMs = float64(sp.Duration) / float64(time.Millisecond)
				s.Status = sp.Status
				break
			}
			if s.Name == "" {
				// In-flight trace: fall back to the earliest finished span.
				s.Name, s.Kind = sp.Name, sp.Kind
			}
		}
		tr.mu.Unlock()
		out = append(out, s)
	}
	return out
}

// Len returns the number of retained traces.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}

// Stats reports lifetime counters: traces started and traces evicted by
// the tail sampler.
func (st *Store) Stats() (started, evicted int64) {
	if st == nil {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.started, st.evicted
}
