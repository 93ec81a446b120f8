package sweep

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/model"
)

// testGoroutineRecord returns the record of the test's own goroutine in
// the goroutine profile: its labels (debug=1 prints them) and its stack.
// Runs under test execute on that goroutine.
func testGoroutineRecord(t *testing.T) string {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Error(err)
	}
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(rec, "sweep.TestRunSpecPprofLabels+") {
			return rec
		}
	}
	t.Errorf("no goroutine runs TestRunSpecPprofLabels:\n%s", b.String())
	return ""
}

// labelProbe is a context that records the test goroutine's profile
// record whenever it is polled. Every execution model polls its context
// (Done or Err) at each iteration barrier on the run's own goroutine.
type labelProbe struct {
	context.Context
	t     *testing.T
	mu    sync.Mutex
	dumps []string
}

func (p *labelProbe) record() {
	d := testGoroutineRecord(p.t)
	p.mu.Lock()
	p.dumps = append(p.dumps, d)
	p.mu.Unlock()
}

func (p *labelProbe) Done() <-chan struct{} {
	p.record()
	return p.Context.Done()
}

func (p *labelProbe) Err() error {
	p.record()
	return p.Context.Err()
}

// TestRunSpecPprofLabels reads a run's pprof labels back from inside the
// run, so a CPU profile taken during a campaign can split its samples by
// algorithm, model, size and α, and checks that the calling goroutine
// drops them once the run returns.
func TestRunSpecPprofLabels(t *testing.T) {
	for _, m := range []model.Name{model.GAS, model.Pregel} {
		spec := smallSpec(algorithms.PR)
		if m != model.GAS {
			spec.Model = m
		}
		probe := &labelProbe{Context: context.Background(), t: t}
		if _, _, err := runSpecTrace(probe, spec, 2, algorithms.FrontierAuto, nil); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`# labels: {"algorithm":"PR", "alpha":"2.50", "model":"%s", "size":"test"}`, m)
		probe.mu.Lock()
		dumps := probe.dumps
		probe.mu.Unlock()
		if len(dumps) < 2 {
			t.Fatalf("%s: the run polled its context %d times", m, len(dumps))
		}
		// The last poll is the final iteration barrier.
		if last := dumps[len(dumps)-1]; !strings.Contains(last, want) {
			t.Fatalf("%s: at the last barrier the run's goroutine lacks %s:\n%s", m, want, last)
		}
		if after := testGoroutineRecord(t); strings.Contains(after, "# labels:") {
			t.Fatalf("%s: labels outlive the run:\n%s", m, after)
		}
	}
}
