// Command perfbench is the repository benchmark. It runs one workload —
// campaign-quick, campaign-engine or serve-mixed, or all three with
// -workload all — against the gcbench library, checks the program's
// outputs against references recorded with the benchmark, and prints
// every metric with its unit and sample count. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 232, "failed": 0, "metrics": {"setup_s": {"value": 0.0003, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of an untraced
// pass. With -trace 1 the workload runs an untraced pass and then a
// traced one, and the metrics are the per-layer metrics computed from
// the traced pass's spans plus the tracing overhead (traced minus
// untraced) of every end-to-end metric.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload campaign-quick --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// planSeed is the campaign plan seed; the campaign references are
// recorded for it.
const planSeed = 42

// env is the per-invocation configuration every workload sees.
type env struct {
	root    string // repository root (holds go.mod and runs-standard.json)
	seed    uint64 // traffic seed (--seed)
	tiny    bool   // self-test sizes
	record  bool   // write reference digests instead of checking them
	perturb bool   // corrupt one reference digest (self-test of the check)
}

func (e *env) benchDir() string { return filepath.Join(e.root, "perfbench") }
func (e *env) buildDir() string { return filepath.Join(e.root, ".bench_build") }
func (e *env) refPath(w string) string {
	return filepath.Join(e.benchDir(), "reference", w+".json")
}

// passConfig bounds one measured pass of a workload.
type passConfig struct {
	budget time.Duration // measured time the pass aims for
	setups int           // serve-mixed: server starts whose median is setup_s
	tr     *tracer       // nil for an untraced pass
	// peakRSS returns the pass's peak resident set in MiB; a pass calls
	// it once, when its measured work is over.
	peakRSS func() float64
}

// passResult is what one pass measured and checked.
type passResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	mismatch  []string       // output-check failures
	checked   map[string]int // outputs compared with a reference, by kind
	invalid   string         // non-empty: the pass is invalid (not slow)
	parallel  int
	workers   int
}

func newPassResult() *passResult {
	return &passResult{metrics: map[string]metric{}, checked: map[string]int{}}
}

func (p *passResult) set(name string, v float64, samples int) {
	p.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

func (p *passResult) mismatchf(format string, args ...any) {
	p.mismatch = append(p.mismatch, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, pc passConfig) (*passResult, error)
}

var workloads = []workload{
	{"campaign-quick", runCampaignQuick},
	{"campaign-engine", runCampaignEngine},
	{"serve-mixed", runServeMixed},
}

// outcome is a workload's reported result.
type outcome struct {
	Workload    string            `json:"workload"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Mismatch    []string          `json:"mismatch,omitempty"`
	Checked     map[string]int    `json:"checked"`
	Invalid     string            `json:"invalid,omitempty"`
	Traced      bool              `json:"traced"`
	Reported    map[string]metric `json:"metrics"`
	Untraced    map[string]metric `json:"untraced"`
	Fingerprint fingerprint       `json:"fingerprint"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		root    = flag.String("root", ".", "repository root")
		name    = flag.String("workload", "", "workload: campaign-quick, campaign-engine, serve-mixed or all")
		seed    = flag.Uint64("seed", 1, "traffic seed (serve-mixed request mix and order)")
		seconds = flag.Float64("seconds", 30, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
		record  = flag.Bool("record", false, "record the workload's reference digests")
	)
	flag.Parse()
	e := &env{root: *root, seed: *seed, record: *record}
	if _, err := os.Stat(filepath.Join(e.root, "go.mod")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not the repository root: %v\n", e.root, err)
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (campaign-quick, campaign-engine, serve-mixed, all), -seconds > 0, -trace 0|1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget := time.Duration(*seconds * float64(time.Second))
	if e.record {
		for _, w := range chosen {
			if _, err := w.run(ctx, e, passConfig{budget: budget, setups: 1, peakRSS: peakRSSMB}); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Printf("recorded %s\n", e.refPath(w.name))
		}
		return 0
	}
	var outs []*outcome
	for _, w := range chosen {
		o, err := measure(ctx, e, w, budget, *traceOn == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(os.Stdout, o)
		if err := writeOutcome(e, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		outs = append(outs, o)
	}
	final := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	metrics := map[string]any{}
	code := 0
	for _, o := range outs {
		if o.Invalid != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", o.Workload, o.Invalid)
			return 3
		}
		if !o.Correct {
			final["correct"] = false
			code = 1
		}
		final["attempted"] = final["attempted"].(int) + o.Attempted
		final["failed"] = final["failed"].(int) + o.Failed
		for k, m := range o.Reported {
			if len(outs) > 1 {
				k = o.Workload + "/" + k
			}
			metrics[k] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	final["metrics"] = metrics
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// measure runs a workload's passes and assembles its reported metrics.
func measure(ctx context.Context, e *env, w workload, budget time.Duration, traced bool) (*outcome, error) {
	o := &outcome{Workload: w.name, Traced: traced, Checked: map[string]int{}}
	if !traced {
		p, err := w.run(ctx, e, passConfig{budget: budget, setups: 3, peakRSS: peakRSSMB})
		if err != nil {
			return nil, err
		}
		o.Untraced = p.metrics
		o.Reported = map[string]metric{}
		for _, d := range endToEnd {
			m, ok := p.metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("pass did not measure end-to-end metric %s", d.Name)
			}
			o.Reported[d.Name] = m
		}
		o.absorb(p)
		o.Fingerprint = takeFingerprint(e, p)
		return o, ctx.Err()
	}

	// Both passes run the same code; the traced one records spans.
	u, err := w.run(ctx, e, halfPass(budget, nil))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t, err := w.run(ctx, e, halfPass(budget, tr))
	if err != nil {
		return nil, err
	}
	o.Untraced = u.metrics
	o.Reported = map[string]metric{}
	for _, d := range perLayer() {
		m, ok := t.metrics[d.Name]
		if !ok {
			m, ok = u.metrics[d.Name] // measured on the real path only
		}
		if !ok {
			m = metric{Unit: d.Unit} // layer not exercised by this workload
		}
		o.Reported[d.Name] = m
	}
	for _, d := range endToEnd {
		tm, um := t.metrics[d.Name], u.metrics[d.Name]
		o.Reported["trace.overhead."+d.Name] = metric{Value: tm.Value - um.Value, Unit: d.Unit, Samples: min(tm.Samples, um.Samples)}
	}
	o.absorb(u)
	o.absorb(t)
	o.Fingerprint = takeFingerprint(e, t)
	path := filepath.Join(e.buildDir(), "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return o, ctx.Err()
}

// halfPass configures one pass of a traced run: half the budget, and a
// peak resident set sampled over this pass alone, starting from a heap
// returned to the system, so the traced pass's peak is not floored by
// the untraced one's as the process-wide high-water mark would be.
func halfPass(budget time.Duration, tr *tracer) passConfig {
	runtime.GC()
	debug.FreeOSMemory()
	return passConfig{budget: budget / 2, setups: 2, tr: tr, peakRSS: watchRSS()}
}

// absorb folds a pass's counts and check results into the outcome.
func (o *outcome) absorb(p *passResult) {
	o.Attempted += p.attempted
	o.Failed += p.failed
	o.Mismatch = append(o.Mismatch, p.mismatch...)
	for k, n := range p.checked {
		o.Checked[k] += n
	}
	if p.invalid != "" && o.Invalid == "" {
		o.Invalid = p.invalid
	}
	o.Correct = len(o.Mismatch) == 0
}

// printReport prints the human-readable lines that precede the result:
// every metric of every pass with its unit and sample count, the
// output-check verdict and the environment fingerprint.
func printReport(w io.Writer, o *outcome) {
	show := func(pass string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := ms[k]
			fmt.Fprintf(w, "# %s %s %-28s %14.6g %-8s n=%d\n", o.Workload, pass, k, m.Value, m.Unit, m.Samples)
		}
	}
	show("untraced", o.Untraced)
	if o.Traced {
		show("reported", o.Reported)
	}
	verdict := "ok"
	if !o.Correct {
		verdict = "MISMATCH: " + strings.Join(o.Mismatch, "; ")
	}
	kinds := make([]string, 0, len(o.Checked))
	for k := range o.Checked {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var checked []string
	for _, k := range kinds {
		checked = append(checked, fmt.Sprintf("%s %d", k, o.Checked[k]))
	}
	fmt.Fprintf(w, "# %s output check: %s (attempted %d, failed %d; checked %s)\n", o.Workload, verdict, o.Attempted, o.Failed, strings.Join(checked, ", "))
	fp, _ := json.Marshal(o.Fingerprint)
	fmt.Fprintf(w, "# %s env %s\n", o.Workload, fp)
}

// writeOutcome stores the full outcome under .bench_build/results.
func writeOutcome(e *env, o *outcome) error {
	dir := filepath.Join(e.buildDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.Traced {
		trace = 1
	}
	b, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, e.seed, trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
