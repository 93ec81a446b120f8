package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gcbench"
)

// campaignDef is one campaign workload: a plan and its parallelism.
type campaignDef struct {
	name     string
	plan     func(e *env) ([]gcbench.Spec, error)
	parallel int           // concurrent runs
	workers  int           // engine workers per run
	nominal  time.Duration // typical campaign time on a 2-core machine
}

// campaign-quick: the shipped quick profile, one run at a time with two
// engine workers — the campaign every user and CI job runs.
func runCampaignQuick(ctx context.Context, e *env, pc passConfig) (*passResult, error) {
	return runCampaign(ctx, e, pc, campaignDef{name: "campaign-quick", plan: quickPlan, parallel: 1, workers: 2, nominal: 12 * time.Second})
}

// campaign-engine: a fixed slice of the standard plan over all four
// execution models, two runs at a time with one engine worker each.
func runCampaignEngine(ctx context.Context, e *env, pc passConfig) (*passResult, error) {
	return runCampaign(ctx, e, pc, campaignDef{name: "campaign-engine", plan: enginePlan, parallel: 2, workers: 1, nominal: 14 * time.Second})
}

var cfAlgorithms = map[gcbench.AlgorithmName]bool{"ALS": true, "NMF": true, "SGD": true, "SVD": true}

func quickPlan(e *env) ([]gcbench.Spec, error) {
	specs, err := gcbench.BuildPlan(gcbench.ProfileQuick, planSeed)
	if err != nil || !e.tiny {
		return specs, err
	}
	// Self-test size: the smallest graph of every algorithm.
	var tiny []gcbench.Spec
	for _, s := range specs {
		if s.NumEdges == 300 || s.NumEdges == 100 || s.NumEdges == 1056 || s.NumRows == 100 || s.NumRows == 12 {
			tiny = append(tiny, s)
		}
	}
	return tiny, nil
}

// enginePlan is the standard plan over every model, without DD: every
// Graph Analytics and Clustering algorithm at 1e5 edges, every CF
// algorithm at 1e4 edges, and the standard Jacobi and LBP sizes.
func enginePlan(e *env) ([]gcbench.Spec, error) {
	all, err := gcbench.BuildPlanModels(gcbench.ProfileStandard, planSeed, gcbench.AllModels())
	if err != nil {
		return nil, err
	}
	var specs []gcbench.Spec
	for _, s := range all {
		switch {
		case s.Algorithm == "DD":
			continue
		case s.NumRows > 0:
			if e.tiny && s.NumRows != 500 && s.NumRows != 50 {
				continue
			}
		case cfAlgorithms[s.Algorithm]:
			if s.NumEdges != 10000 {
				continue
			}
		case s.NumEdges != 100000:
			continue
		}
		if e.tiny && s.Alpha != 0 && s.Alpha != 3.0 {
			continue
		}
		if e.tiny && s.Algorithm == "KM" {
			continue
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// setupReps is the number of set-up repetitions in one batch. Set-up
// takes about a tenth of a millisecond, so a batch costs milliseconds. A
// batch runs before every campaign repetition and after the last one, so
// the reported median spans the whole pass rather than its first instant.
const setupReps = 100

// runCampaign measures one campaign workload. Each repetition opens a
// fresh journal, runs the campaign through SweepCampaign and saves the
// corpus. The number of repetitions is what fits the budget at the
// nominal campaign time, so it is the same on every run and does not
// follow the machine's speed. A traced pass runs the same repetitions
// with a span around the campaign and the save, then times every layer
// by direct calls (layerCalls).
func runCampaign(ctx context.Context, e *env, pc passConfig, def campaignDef) (*passResult, error) {
	p := newPassResult()
	p.parallel, p.workers = def.parallel, def.workers
	ref, err := loadReference(e, def.name, planSeed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(e.buildDir(), "work", def.name)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up is plan build plus journal open (of a journal not yet on
	// disk, as at the start of a fresh campaign).
	var specs []gcbench.Spec
	var setups []float64
	setupBatch := func() error {
		runtime.GC()
		for i := 0; i < setupReps; i++ {
			path := filepath.Join(work, fmt.Sprintf("setup%d.journal", len(setups)))
			t0 := time.Now()
			s, err := def.plan(e)
			if err != nil {
				return err
			}
			if _, err := gcbench.OpenJournal(path); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			specs = s
		}
		return nil
	}

	reps := max(1, int(pc.budget/def.nominal))
	if e.tiny || e.record {
		reps = 1
	}
	var walls, ops, idle []float64
	var results []gcbench.RunResult
	for rep := 0; rep < reps; rep++ {
		if err := setupBatch(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC() // start every repetition from the same heap state
		dir := filepath.Join(work, fmt.Sprintf("rep%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		j, err := gcbench.OpenJournal(filepath.Join(dir, "runs.json.journal"))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sp := pc.tr.begin(0, "sweep", "campaign", "")
		res, err := gcbench.SweepCampaign(ctx, specs, gcbench.SweepConfig{Parallel: def.parallel, Workers: def.workers, Journal: j})
		pc.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		var busy time.Duration
		for _, r := range res.Results {
			p.attempted++
			if r.Status != gcbench.RunOK {
				p.failed++
				p.mismatchf("%s: status %s: %s", r.Spec.ID(), r.Status, r.Err)
				continue
			}
			ref.check(p, "run", r.Spec.ID(), runDigest(r.Run))
			ops = append(ops, r.Duration.Seconds()*1e3)
			busy += r.Duration
		}
		sp = pc.tr.begin(0, "sweep", "save", "")
		if err := gcbench.SaveRuns(filepath.Join(dir, "runs.json"), res.Runs); err != nil {
			return nil, fmt.Errorf("saving corpus: %w", err)
		}
		pc.tr.end(sp)
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		idle = append(idle, 1-busy.Seconds()/(float64(def.parallel)*wall.Seconds()))
		results = res.Results
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}
	if e.record {
		if err := ref.save(e); err != nil {
			return nil, err
		}
	}
	p.set("setup_s", median(setups), len(setups))
	p.set("campaign_s", median(walls), len(walls))
	p.set("op_p50_ms", quantile(ops, 0.50), len(ops))
	p.set("peak_rss_mb", pc.peakRSS(), 1)
	p.set("sweep.idle_frac", median(idle), len(idle))
	if pc.tr == nil {
		return p, nil
	}
	return p, layerCalls(ctx, pc.tr, p, def, ref, filepath.Join(work, "layers.journal"), results)
}

// layerCalls times each layer of a finished campaign by calling it
// directly, after the measured campaign and outside its wall time: the
// generators once per distinct structure, the CSR build alone by
// rebuilding each generated graph's edges with Builder, every spec
// through RunSpecTrace (the sweep's own single-run path), and the journal
// by recording the campaign's results into a fresh one. The engine's and
// the other models' time is what their returned iteration statistics
// measured. The direct runs are checked against the same digests.
func layerCalls(ctx context.Context, tr *tracer, p *passResult, def campaignDef, ref *reference, journal string, results []gcbench.RunResult) error {
	specs := make([]gcbench.Spec, len(results))
	for i, r := range results {
		specs[i] = r.Spec
	}
	if err := genCalls(tr, specs); err != nil {
		return err
	}
	st := newEngineStats()
	errs := make([]error, len(specs))
	sem := make(chan struct{}, def.parallel)
	var wg sync.WaitGroup
	for i, spec := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = runCall(ctx, tr, p, ref, st, spec, def.workers)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	j, err := gcbench.OpenJournal(journal)
	if err != nil {
		return err
	}
	for _, r := range results {
		sp := tr.begin(0, "sweep", "journal", r.Spec.ID())
		err := j.Record(gcbench.JournalEntry{ID: r.Spec.ID(), Spec: r.Spec, Status: r.Status, Attempts: r.Attempts,
			DurationMs: r.Duration.Milliseconds(), Err: r.Err, Run: r.Run, Provenance: r.Provenance})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	st.report(p, summarize(tr))
	return nil
}

// runCall runs one spec through RunSpecTrace inside a "run" span. The
// span's last part, as long as the iterations the model recorded, is a
// child span of the model's layer ("engine" for GAS), so the run span's
// self time is workload generation and dispatch.
func runCall(ctx context.Context, tr *tracer, p *passResult, ref *reference, st *engineStats, spec gcbench.Spec, workers int) error {
	id := spec.ID()
	rs := tr.begin(0, "run", id, id)
	run, rt, err := gcbench.RunSpecTrace(ctx, spec, workers, gcbench.FrontierAuto)
	if err != nil {
		tr.end(rs)
		return fmt.Errorf("run %s: %w", id, err)
	}
	var wall time.Duration
	for _, it := range rt.Iterations {
		wall += it.WallTime
	}
	layer := string(spec.EffectiveModel())
	if layer == string(gcbench.ModelGAS) {
		layer = "engine"
		st.add(string(spec.Algorithm), rt)
	}
	tr.endWithTail(rs, layer, string(spec.Algorithm), wall)
	ref.check(p, "direct run", id, runDigest(run))
	return nil
}

// genCalls calls each distinct structure's generator once, with the
// parameters the sweep uses, inside a "gen" span, and rebuilds every
// generated graph with the public Builder inside a "graph" span.
func genCalls(tr *tracer, specs []gcbench.Spec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if key := structureKey(s); !seen[key] {
			seen[key] = true
			g, err := generate(tr, s)
			if err != nil {
				return fmt.Errorf("generating %s: %w", s.ID(), err)
			}
			if g != nil {
				if err := rebuild(tr, g); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// structureKey names the generated input of a spec: the sweep shares one
// graph between every spec, of any model, with the same generator inputs,
// and generates the other inputs per spec.
func structureKey(s gcbench.Spec) string {
	switch {
	case cfAlgorithms[s.Algorithm]:
		return fmt.Sprintf("cf/%d/%g/%d", s.NumEdges, s.Alpha, s.Seed)
	case s.NumRows == 0 && s.Algorithm != "DD":
		return fmt.Sprintf("ga/%d/%g/%d", s.NumEdges, s.Alpha, s.Seed)
	}
	return "spec/" + s.ID()
}

// generate builds a spec's input with the generator calls and parameters
// the sweep uses, inside a "gen" span. It returns the graph of the graph-
// shaped inputs (nil for linear systems and MRFs).
func generate(tr *tracer, spec gcbench.Spec) (*gcbench.Graph, error) {
	id := spec.ID()
	switch {
	case cfAlgorithms[spec.Algorithm]:
		sp := tr.begin(0, "gen", "Bipartite", id)
		defer tr.end(sp)
		g, _, err := gcbench.Bipartite(gcbench.BipartiteConfig{NumEdges: spec.NumEdges, Alpha: spec.Alpha, Seed: spec.Seed})
		return g, err
	case spec.Algorithm == "Jacobi":
		sp := tr.begin(0, "gen", "Matrix", id)
		defer tr.end(sp)
		_, err := gcbench.Matrix(gcbench.JacobiConfig{NumRows: spec.NumRows, Seed: spec.Seed})
		return nil, err
	case spec.Algorithm == "LBP":
		sp := tr.begin(0, "gen", "Grid", id)
		defer tr.end(sp)
		_, err := gcbench.Grid(gcbench.GridConfig{Rows: spec.NumRows, Seed: spec.Seed})
		return nil, err
	case spec.Algorithm == "DD":
		sp := tr.begin(0, "gen", "MRF", id)
		defer tr.end(sp)
		_, err := gcbench.RandomMRF(gcbench.MRFConfig{NumEdges: spec.NumEdges, Seed: spec.Seed})
		return nil, err
	}
	sp := tr.begin(0, "gen", "PowerLaw", id)
	defer tr.end(sp)
	g, err := gcbench.PowerLaw(gcbench.PowerLawConfig{NumEdges: spec.NumEdges, Alpha: spec.Alpha, Seed: spec.Seed, SortAdjacency: true})
	if err != nil {
		return nil, err
	}
	return g, g.SetFeatures(2, gcbench.GaussianPoints2D(g.NumVertices(), 8, 15, spec.Seed^0xfeed))
}

// rebuild copies a generated graph's edges out (untimed), then times the
// CSR build alone by building the same graph again with the public
// Builder, and checks the rebuilt graph has the generated one's arcs.
func rebuild(tr *tracer, g *gcbench.Graph) error {
	n, directed, weighted := g.NumVertices(), g.Directed(), g.Weighted()
	var src, dst []uint32
	var w []float64
	for v := 0; v < n; v++ {
		lo, hi := g.OutArcRange(uint32(v))
		for i := lo; i < hi; i++ {
			u := g.ArcTarget(i)
			if !directed && u < uint32(v) {
				continue // an undirected edge is stored in both directions
			}
			src = append(src, uint32(v))
			dst = append(dst, u)
			if weighted {
				w = append(w, g.ArcWeight(i))
			}
		}
	}
	sp := tr.begin(0, "graph", "build", "")
	b := gcbench.NewBuilder(n, directed).Dedup()
	if weighted {
		b.Weighted()
	}
	if g.AdjSorted() {
		b.SortAdjacency()
	}
	for i := range src {
		if weighted {
			b.AddWeightedEdge(src[i], dst[i], w[i])
		} else {
			b.AddEdge(src[i], dst[i])
		}
	}
	rg, err := b.Build()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("rebuilding graph: %w", err)
	}
	if rg.NumArcs() != g.NumArcs() {
		return fmt.Errorf("rebuilt graph has %d arcs, generated one %d", rg.NumArcs(), g.NumArcs())
	}
	return nil
}

// engineStats sums the GAS engine's returned iteration statistics.
type engineStats struct {
	mu                              sync.Mutex
	gather, apply, scatter, barrier time.Duration
	eread, updt, msg, iterations    int64
	ereadByAlg                      map[string]int64
}

func newEngineStats() *engineStats { return &engineStats{ereadByAlg: map[string]int64{}} }

func (st *engineStats) add(alg string, rt *gcbench.RunTrace) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, it := range rt.Iterations {
		st.gather += it.GatherWall
		st.apply += it.ApplyWall
		st.scatter += it.ScatterWall
		st.barrier += it.BarrierTime
		st.eread += it.EdgeReads
		st.updt += it.Updates
		st.msg += it.Messages
		st.ereadByAlg[alg] += it.EdgeReads
	}
	st.iterations += int64(len(rt.Iterations))
}

// report sets the campaign's per-layer metrics from the spans and the
// engine statistics.
func (st *engineStats) report(p *passResult, ls layerStats) {
	p.set("gen.s", ls.selfSeconds("gen"), ls.count("gen"))
	p.set("graph.build_s", ls.selfSeconds("graph"), ls.count("graph"))
	for _, a := range allAlgorithms {
		key := "engine/" + a
		p.set("engine."+a+".s", ls.selfSeconds(key), ls.count(key))
		mteps := 0.0
		if wall := sum(secondsOf(ls.durs[key], 1)); wall > 0 {
			mteps = float64(st.ereadByAlg[a]) / wall / 1e6
		}
		p.set("engine."+a+".mteps", mteps, ls.count(key))
	}
	n := int(st.iterations)
	p.set("engine.gather_s", st.gather.Seconds(), n)
	p.set("engine.apply_s", st.apply.Seconds(), n)
	p.set("engine.scatter_s", st.scatter.Seconds(), n)
	p.set("engine.barrier_s", st.barrier.Seconds(), n)
	p.set("engine.eread", float64(st.eread), n)
	p.set("engine.updt", float64(st.updt), n)
	p.set("engine.msg", float64(st.msg), n)
	p.set("engine.iterations", float64(st.iterations), ls.count("engine"))
	for _, m := range modelLayers {
		for _, a := range m.Algs {
			key := m.Model + "/" + a
			p.set(m.Model+"."+a+".s", ls.selfSeconds(key), ls.count(key))
		}
	}
	p.set("sweep.journal_s", ls.selfSeconds("sweep/journal"), ls.count("sweep/journal"))
	p.set("sweep.journal_p99_ms", quantile(secondsOf(ls.durs["sweep/journal"], 1e3), 0.99), ls.count("sweep/journal"))
	p.set("sweep.save_s", ls.selfSeconds("sweep/save"), ls.count("sweep/save"))
}
