package otrace

import (
	"fmt"
	"testing"
	"time"
)

// endTrace starts and immediately finishes a trace, optionally failing
// its root.
func endTrace(st *Store, name string, fail bool) TraceID {
	tr, root := st.StartTrace(name, "server", TraceID{}, SpanID{})
	if fail {
		root.Fail("boom")
	}
	root.End()
	return tr.ID()
}

func TestStoreEvictsBoringFirst(t *testing.T) {
	st := NewStore(4)
	bad := endTrace(st, "bad", true)
	var boring []TraceID
	for i := 0; i < 10; i++ {
		boring = append(boring, endTrace(st, fmt.Sprintf("ok-%d", i), false))
	}
	if st.Len() != 4 {
		t.Fatalf("store len = %d, want capacity 4", st.Len())
	}
	if _, ok := st.Get(bad); !ok {
		t.Fatal("error trace evicted while boring traces remained")
	}
	// The earliest boring traces must be gone.
	if _, ok := st.Get(boring[0]); ok {
		t.Fatal("oldest boring trace survived past capacity")
	}
	started, evicted := st.Stats()
	if started != 11 || evicted != 7 {
		t.Fatalf("stats = (%d started, %d evicted), want (11, 7)", started, evicted)
	}
}

func TestStoreProtectsMarked(t *testing.T) {
	st := NewStore(3)
	tr, root := st.StartTrace("ratelimited", "server", TraceID{}, SpanID{})
	tr.Mark() // the HTTP layer marks 429s
	root.End()
	for i := 0; i < 10; i++ {
		endTrace(st, "ok", false)
	}
	if _, ok := st.Get(tr.ID()); !ok {
		t.Fatal("marked trace evicted while boring traces remained")
	}
}

func TestStoreKeepsInFlightTraces(t *testing.T) {
	st := NewStore(2)
	trLive, _ := st.StartTrace("live", "server", TraceID{}, SpanID{}) // root never ends
	for i := 0; i < 6; i++ {
		endTrace(st, "ok", false)
	}
	if _, ok := st.Get(trLive.ID()); !ok {
		t.Fatal("in-flight trace evicted while finished traces remained")
	}
}

// endFastTrace records a finished root that lasted exactly one
// millisecond, however long the store itself took.
func endFastTrace(st *Store) {
	_, root := st.StartTrace("fast", "server", TraceID{}, SpanID{})
	root.endAt(root.data.Start.Add(time.Millisecond))
}

func TestStoreSlowDecileProtection(t *testing.T) {
	st := NewStore(64)
	// Prime the duration window with fast roots.
	for i := 0; i < 32; i++ {
		endFastTrace(st)
	}
	// One slow root: far beyond the p90 of the 1 ms priming roots.
	tr, root := st.StartTrace("slow", "server", TraceID{}, SpanID{})
	root.endAt(root.data.Start.Add(500 * time.Millisecond)) // instead of sleeping
	slowID := tr.ID()
	got, ok := st.Get(slowID)
	if !ok {
		t.Fatal("slow trace missing")
	}
	got.mu.Lock()
	protected := got.protected
	got.mu.Unlock()
	if !protected {
		t.Fatal("slowest-decile trace not protected")
	}
	// Flood with fast traces: the slow one must survive capacity pressure.
	for i := 0; i < 200; i++ {
		endFastTrace(st)
	}
	if _, ok := st.Get(slowID); !ok {
		t.Fatal("slowest-decile trace evicted while boring traces remained")
	}
	// Roots that only tie the p90 are not slow: the slow root is the one
	// protected trace left.
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, tr := range st.traces {
		tr.mu.Lock()
		protected := tr.protected
		tr.mu.Unlock()
		if protected != (id == slowID) {
			t.Fatalf("trace %v protected = %v", id, protected)
		}
	}
}

func TestStoreListNewestFirst(t *testing.T) {
	st := NewStore(8)
	a := endTrace(st, "a", false)
	b := endTrace(st, "b", true)
	ls := st.List()
	if len(ls) != 2 {
		t.Fatalf("list = %d entries, want 2", len(ls))
	}
	if ls[0].TraceID != b || ls[1].TraceID != a {
		t.Fatalf("order = [%s %s], want newest first", ls[0].Name, ls[1].Name)
	}
	if !ls[0].Finished || ls[0].Status != StatusError || !ls[0].Protected {
		t.Fatalf("summary of failed trace = %+v", ls[0])
	}
	if ls[1].Name != "a" || ls[1].Spans != 1 {
		t.Fatalf("summary = %+v", ls[1])
	}
}

func TestStoreTraceIDCollisionReplaces(t *testing.T) {
	st := NewStore(8)
	tid := NewTraceID()
	_, r1 := st.StartTrace("first", "server", tid, SpanID{})
	r1.End()
	tr2, r2 := st.StartTrace("second", "server", tid, SpanID{})
	r2.End()
	if st.Len() != 1 {
		t.Fatalf("store len = %d, want 1 after id collision", st.Len())
	}
	got, _ := st.Get(tid)
	if got != tr2 {
		t.Fatal("collision must keep the newer trace")
	}
}
