// Package engine implements the synchronous Gather-Apply-Scatter (GAS)
// computation model of GraphLab/PowerGraph (§3.3 of the paper), with the
// instrumentation the paper's behavior characterization is built on.
//
// Graph computation is expressed vertex-centrically. Each vertex is active
// or inactive; only active vertices compute. One iteration runs three
// phases without overlap, each a barrier across all vertices:
//
//   - Gather collects data through adjacent edges (each per-edge collect is
//     an "edge read", counted toward EREAD);
//   - Apply runs user computation on the central vertex (counted toward
//     UPDT, timed toward WORK);
//   - Scatter sends activation signals to neighbors (each signal is a
//     "message", counted toward MSG). Only signaled vertices are active in
//     the next iteration.
//
// The computation ends when no vertices are active, when the program's
// optional convergence hook says so, or at the iteration cap.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/obs"
	"gcbench/internal/trace"
)

// Engine metrics on the process-wide obs registry, updated once per
// iteration (a handful of atomic adds — far below the <5% phase-span
// overhead budget; see BenchmarkEngineBFS).
var (
	metricRuns       = obs.Default().Counter("gcbench_engine_runs_total", "Graph computations started.")
	metricIterations = obs.Default().Counter("gcbench_engine_iterations_total", "GAS iterations executed.")
	metricUpdates    = obs.Default().Counter("gcbench_engine_updates_total", "Vertex updates (apply calls, the UPDT numerator).")
	metricEdgeReads  = obs.Default().Counter("gcbench_engine_edge_reads_total", "Gather edge reads (the EREAD numerator).")
	metricMessages   = obs.Default().Counter("gcbench_engine_messages_total", "Scatter activation messages (the MSG numerator).")
	metricGatherSec  = obs.Default().Counter("gcbench_engine_gather_seconds_total", "Wall-clock seconds in gather phases.")
	metricApplySec   = obs.Default().Counter("gcbench_engine_apply_seconds_total", "Wall-clock seconds in apply phases.")
	metricScatterSec = obs.Default().Counter("gcbench_engine_scatter_seconds_total", "Wall-clock seconds in scatter phases.")
	metricBarrierSec = obs.Default().Counter("gcbench_engine_barrier_seconds_total", "Wall-clock seconds outside the three phases (hooks, frontier bookkeeping).")

	// Frontier scheduling metrics (see frontier.go).
	metricFrontierPhases = obs.Default().Counter("gcbench_engine_frontier_mode_total", "Frontier scheduling decisions made (one per phase executed; sparse share in gcbench_engine_frontier_sparse_phases_total).")
	metricFrontierSparse = obs.Default().Counter("gcbench_engine_frontier_sparse_phases_total", "Phases executed in sparse (compacted frontier) mode.")
	metricFrontierSwitch = obs.Default().Counter("gcbench_engine_frontier_switches_total", "Dense<->sparse schedule flips between consecutive iterations of a run.")
)

// Direction selects which adjacent edges a phase visits.
type Direction int

const (
	// None visits no edges.
	None Direction = iota
	// In visits in-edges (for undirected graphs, all incident edges).
	In
	// Out visits out-edges (for undirected graphs, all incident edges).
	Out
	// Both visits in- and out-edges (directed graphs only; undirected
	// graphs treat it as Out to avoid double-visiting).
	Both
)

// Arc describes one edge endpoint visit during gather or scatter.
type Arc struct {
	// Index is the canonical out-arc index of this edge in CSR order —
	// stable across gather directions, usable to index per-arc program
	// state such as belief-propagation messages.
	Index int64
	// Other is the neighbor vertex on the far side of the edge.
	Other uint32
	// Weight is the edge weight (1 for unweighted graphs).
	Weight float64
}

// Program is a vertex program in the GAS model, generic over the vertex
// state S and the gather accumulator A.
//
// Within one iteration, Gather for every active vertex runs before any
// Apply, and every Apply before any Scatter, so Gather observes the state
// of the previous iteration and Scatter observes fully applied state —
// GraphLab's synchronous semantics.
type Program[S, A any] interface {
	// Init returns vertex v's initial state and whether it starts active.
	Init(g *graph.Graph, v uint32) (state S, active bool)

	// GatherDirection selects the edges Gather visits.
	GatherDirection() Direction
	// Gather computes the contribution of one edge. self is the central
	// vertex's state, other the neighbor's.
	Gather(v uint32, e Arc, self, other S) A
	// Sum combines two gather contributions (must be commutative and
	// associative for deterministic parallel execution over a vertex's
	// sequential edge scan).
	Sum(a, b A) A

	// Apply computes v's next state. hasAcc is false when no edges were
	// gathered (isolated vertex or GatherDirection None).
	Apply(v uint32, self S, acc A, hasAcc bool) S

	// ScatterDirection selects the edges Scatter visits.
	ScatterDirection() Direction
	// Scatter inspects one edge after Apply and reports whether to signal
	// (activate) the neighbor for the next iteration.
	Scatter(v uint32, e Arc, self, other S) bool
}

// Accumulator is an optional Program extension for programs whose
// accumulator is wider than a couple of machine words. The gather phase
// then folds each arc into the vertex's accumulator slot in place, where
// the Gather/Sum pair would return and merge a full accumulator by value
// on every arc.
//
// GatherInto must leave *acc bit-identical to the Gather/Sum path:
//   - first is true on the vertex's first gathered arc. That arc stores
//     its contribution (acc = Gather(...)) and every later arc adds it
//     (acc = Sum(acc, Gather(...))). Storing instead of adding to zero
//     keeps the sign of a zero contribution.
//   - It uses the same expressions as Gather and Sum, operand for operand.
//   - Every product it adds is rounded first: acc += float64(x*y). Go may
//     otherwise fuse acc += x*y into one FMA instruction (arm64,
//     GOAMD64=v3), which the by-value path, whose products are stored in
//     the returned contribution before Sum adds them, never does.
//   - It allocates nothing.
//
// Gather and Sum stay required: they define the value GatherInto must
// reproduce.
type Accumulator[S, A any] interface {
	GatherInto(acc *A, first bool, v uint32, e Arc, self, other S)
}

// PreIterator is an optional Program extension: PreIteration runs serially
// before each iteration's gather phase (GraphLab's aggregator slot —
// K-Means recomputes centroids here).
type PreIterator[S any] interface {
	PreIteration(c *Control[S])
}

// PostIterator is an optional Program extension: PostIteration runs
// serially after the scatter phase; returning true halts the computation.
// Drivers like K-Core's k-level advance and the Lanczos loop live here.
type PostIterator[S any] interface {
	PostIteration(c *Control[S]) (halt bool)
}

// Control exposes engine state to Pre/PostIteration hooks.
type Control[S any] struct {
	eng interface {
		graphRef() *graph.Graph
		iterationRef() int
		stateAny() any
		activateNext(v uint32)
		activateAllNext()
		nextCount() int64
	}
}

// Graph returns the graph under computation.
func (c *Control[S]) Graph() *graph.Graph { return c.eng.graphRef() }

// Iteration returns the current 0-based iteration number.
func (c *Control[S]) Iteration() int { return c.eng.iterationRef() }

// States returns the live vertex state slice. Hooks may mutate it.
func (c *Control[S]) States() []S { return c.eng.stateAny().([]S) }

// Activate marks v active for the next iteration without sending a
// message (driver-level activation, not counted toward MSG).
func (c *Control[S]) Activate(v uint32) { c.eng.activateNext(v) }

// ActivateAll marks every vertex active for the next iteration.
func (c *Control[S]) ActivateAll() { c.eng.activateAllNext() }

// NextActiveCount returns how many vertices are currently marked active
// for the next iteration.
func (c *Control[S]) NextActiveCount() int64 { return c.eng.nextCount() }

// Options configures a run.
type Options struct {
	// MaxIterations caps the run; 0 means DefaultMaxIterations.
	MaxIterations int
	// Workers is the parallelism degree; 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, is polled at every iteration barrier: a
	// cancelled or expired context stops the run before its next
	// iteration and Run returns an error wrapping ctx.Err(). Cancellation
	// is cooperative — a run is never interrupted mid-phase, so the trace
	// is always phase-consistent up to the barrier it stopped at.
	Context context.Context
	// Frontier selects the active-set scheduling strategy (see
	// frontier.go). The zero value is FrontierAuto. The paper's behavior
	// counters (UPDT, EREAD, MSG, active fraction) are identical across
	// modes by construction; only wall times and worker attribution vary.
	Frontier FrontierMode
}

// DefaultMaxIterations bounds runs whose convergence criterion never
// fires (the paper caps NMF and SGD at 20 iterations at the algorithm
// level; this engine-level cap is a safety net).
const DefaultMaxIterations = 100000

// Result carries a finished computation's trace and final states.
type Result[S any] struct {
	Trace  *trace.RunTrace
	States []S
}

// Run executes the program to convergence and returns its trace and final
// vertex states.
func Run[S, A any](g *graph.Graph, p Program[S, A], opt Options) (*Result[S], error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("engine: nil or empty graph")
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if workers > n {
		workers = n
	}
	e := newEngine(g, p, workers, opt.Frontier)

	pre, _ := any(p).(PreIterator[S])
	post, _ := any(p).(PostIterator[S])
	ctl := &Control[S]{eng: e}

	tr := &trace.RunTrace{
		NumVertices: n,
		NumEdges:    g.NumEdges(),
	}
	metricRuns.Inc()

	prevSparse := false
	for iter := 0; iter < maxIter; iter++ {
		active := e.countAndPlan()
		if active == 0 {
			tr.Converged = true
			break
		}
		if ctx := opt.Context; ctx != nil {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("engine: run stopped at iteration %d: %w", iter, ctx.Err())
			default:
			}
		}
		e.iter = iter
		start := time.Now()

		if iter > 0 && e.sparseIter != prevSparse {
			metricFrontierSwitch.Inc()
		}
		prevSparse = e.sparseIter

		if pre != nil {
			pre.PreIteration(ctl)
		}

		gStart := time.Now()
		edgeReads, gatherBusy, gatherMode := e.gatherPhase()
		gatherWall := time.Since(gStart)
		aStart := time.Now()
		updates, applyTime, applyBusy, applyMode := e.applyPhase()
		applyWall := time.Since(aStart)
		sStart := time.Now()
		messages, scatterBusy, scatterMode := e.scatterPhase()
		scatterWall := time.Since(sStart)

		halt := false
		if post != nil {
			halt = post.PostIteration(ctl)
		}

		wall := time.Since(start)
		spans := make([]trace.WorkerSpan, e.workers)
		for w := 0; w < e.workers; w++ {
			spans[w] = trace.WorkerSpan{Worker: w, Apply: applyBusy[w]}
			if gatherBusy != nil {
				spans[w].Gather = gatherBusy[w]
			}
			if scatterBusy != nil {
				spans[w].Scatter = scatterBusy[w]
			}
		}
		tr.Iterations = append(tr.Iterations, trace.IterationStats{
			Iteration:   iter,
			Active:      active,
			Updates:     updates,
			EdgeReads:   edgeReads,
			Messages:    messages,
			ApplyTime:   applyTime,
			WallTime:    wall,
			GatherWall:  gatherWall,
			ApplyWall:   applyWall,
			ScatterWall: scatterWall,
			BarrierTime: wall - gatherWall - applyWall - scatterWall,
			WorkerSpans: spans,
			GatherMode:  gatherMode,
			ApplyMode:   applyMode,
			ScatterMode: scatterMode,
		})

		metricIterations.Inc()
		metricUpdates.Add(float64(updates))
		metricEdgeReads.Add(float64(edgeReads))
		metricMessages.Add(float64(messages))
		metricGatherSec.Add(gatherWall.Seconds())
		metricApplySec.Add(applyWall.Seconds())
		metricScatterSec.Add(scatterWall.Seconds())
		metricBarrierSec.Add((wall - gatherWall - applyWall - scatterWall).Seconds())

		// Swap frontiers. A compacted iteration knows exactly which words
		// of the outgoing frontier were set (nothing touches cur
		// mid-iteration), so it clears those instead of the whole bitset.
		e.cur, e.next = e.next, e.cur
		if e.sparseIter {
			for _, v := range e.frontier {
				e.next.words[v>>6] = 0
			}
		} else {
			e.next.Clear()
		}

		if halt {
			tr.Converged = true
			break
		}
	}

	return &Result[S]{Trace: tr, States: e.state}, nil
}

// newEngine builds a run's engine with every vertex's initial state and
// the initial frontier.
func newEngine[S, A any](g *graph.Graph, p Program[S, A], workers int, frontier FrontierMode) *engine[S, A] {
	n := g.NumVertices()
	into, _ := any(p).(Accumulator[S, A])
	e := &engine[S, A]{
		g:         g,
		p:         p,
		workers:   workers,
		into:      into,
		state:     make([]S, n),
		acc:       make([]A, n),
		hasAcc:    make([]bool, n),
		cur:       newBitset(n),
		next:      newBitset(n),
		gatherD:   normalizeDir(g, p.GatherDirection()),
		scatterD:  normalizeDir(g, p.ScatterDirection()),
		frontierM: frontier,
	}
	for v := uint32(0); int(v) < n; v++ {
		s, active := p.Init(g, v)
		e.state[v] = s
		if active {
			e.cur.SetSerial(v)
		}
	}
	return e
}

// normalizeDir collapses In/Both to Out for undirected graphs, whose two
// CSR sides are identical.
func normalizeDir(g *graph.Graph, d Direction) Direction {
	if !g.Directed() && (d == In || d == Both) {
		return Out
	}
	return d
}

// engine holds the run's mutable state.
type engine[S, A any] struct {
	g        *graph.Graph
	p        Program[S, A]
	into     Accumulator[S, A] // p's in-place gather, nil if it has none
	workers  int
	state    []S
	acc      []A
	hasAcc   []bool
	cur      *bitset
	next     *bitset
	gatherD  Direction
	scatterD Direction
	iter     int

	// Frontier scheduling state (frontier.go). The buffers are reused
	// across iterations and grow monotonically.
	frontierM  FrontierMode
	sparseIter bool     // this iteration has a compacted frontier
	frontier   []uint32 // sorted active vertices (valid when sparseIter)
	chunkOff   []int64  // per-chunk compaction offsets
	prefix     []int64  // per-phase degree prefix sums over frontier
	bounds     []int    // per-phase edge-balanced slice boundaries
}

// Control plumbing (untyped so Control[S] needs no second type parameter).
func (e *engine[S, A]) graphRef() *graph.Graph { return e.g }
func (e *engine[S, A]) iterationRef() int      { return e.iter }
func (e *engine[S, A]) stateAny() any          { return e.state }
func (e *engine[S, A]) activateNext(v uint32)  { e.next.SetSerial(v) }
func (e *engine[S, A]) activateAllNext()       { e.next.SetAll() }
func (e *engine[S, A]) nextCount() int64       { return e.next.Count() }

// chunkSize is the dynamic scheduling granule in vertices. Word-aligned
// (multiple of 64) so concurrent bitset scans never share a word.
const chunkSize = 4096

// parallelDeal deals task indices [0, numTasks) to workers through an
// atomic cursor (hub vertices in power-law graphs make static partitions
// imbalanced). It spawns min(workers, numTasks) goroutines — small graphs
// under high Workers must not pay goroutine startup for chunks that do
// not exist — and runs serially when one suffices. Worker indices passed
// to task are always < e.workers, so callers size per-worker arrays at
// e.workers regardless of how many goroutines actually spawn.
func (e *engine[S, A]) parallelDeal(numTasks int64, task func(worker int, t int64)) {
	if numTasks <= 0 {
		return
	}
	spawn := e.workers
	if int64(spawn) > numTasks {
		spawn = int(numTasks)
	}
	if spawn <= 1 {
		for t := int64(0); t < numTasks; t++ {
			task(0, t)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	// A vertex program panicking inside a worker goroutine would crash the
	// whole process; capture the first panic and re-raise it on the calling
	// goroutine so campaign-level recover() can isolate the failed run.
	type capturedPanic struct{ value any }
	var panicked atomic.Pointer[capturedPanic]
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &capturedPanic{p})
				}
			}()
			for {
				t := cursor.Add(1) - 1
				if t >= numTasks || panicked.Load() != nil {
					return
				}
				task(worker, t)
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.value)
	}
}

// parallelChunks deals word-aligned vertex chunks to workers and calls fn
// once per chunk — the dense-scan schedule.
func (e *engine[S, A]) parallelChunks(fn func(worker int, lo, hi uint32)) {
	n := uint32(e.g.NumVertices())
	numChunks := (int64(n) + chunkSize - 1) / chunkSize
	e.parallelDeal(numChunks, func(worker int, c int64) {
		lo := uint32(c * chunkSize)
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		fn(worker, lo, hi)
	})
}

// gatherLegs lists, per gather direction, the CSR sides a vertex's gather
// walks: false for its out-arcs, true for its in-arcs.
var gatherLegs = [...][]bool{None: nil, In: {true}, Out: {false}, Both: {false, true}}

// arcRange returns v's arc index range on one CSR side: its out-arcs when
// in is false, its in-arcs when it is true. Only that side's offsets are
// read.
func arcRange(g *graph.Graph, v uint32, in bool) (lo, hi int64) {
	if in {
		return g.InArcRange(v)
	}
	return g.OutArcRange(v)
}

// arcAt describes arc a of one CSR side: an out-arc index when in is
// false, an in-arc index when it is true.
func arcAt(g *graph.Graph, a int64, in bool) Arc {
	if in {
		out := g.InArcToOutArc(a)
		return Arc{Index: out, Other: g.InArcSource(a), Weight: g.ArcWeight(out)}
	}
	return Arc{Index: a, Other: g.ArcTarget(a), Weight: g.ArcWeight(a)}
}

// gatherPhase folds every active vertex's arcs into its accumulator —
// through GatherInto when the program is an Accumulator, else by value
// through Gather and Sum — and stores it. Returns the total edge reads,
// per-worker busy time (granule-level timing — chunk or slice — so the
// span instrumentation never pays a clock read per vertex) and the
// schedule mode executed.
func (e *engine[S, A]) gatherPhase() (int64, []time.Duration, string) {
	busy := make([]time.Duration, e.workers)
	if e.gatherD == None {
		// Still reset hasAcc for active vertices so Apply sees hasAcc=false.
		mode := e.forActive(None, busy, func(_ int, v uint32) { e.hasAcc[v] = false })
		return 0, busy, mode
	}
	reads := make([]int64, e.workers)
	legs := gatherLegs[e.gatherD]
	into := e.into
	mode := e.forActive(e.gatherD, busy, func(worker int, v uint32) {
		var acc A
		self := e.state[v]
		r := int64(0)
		for _, in := range legs {
			lo, hi := arcRange(e.g, v, in)
			for a := lo; a < hi; a++ {
				arc := arcAt(e.g, a, in)
				other := e.state[arc.Other]
				switch {
				case into != nil:
					into.GatherInto(&e.acc[v], r == 0, v, arc, self, other)
				case r == 0:
					acc = e.p.Gather(v, arc, self, other)
				default:
					acc = e.p.Sum(acc, e.p.Gather(v, arc, self, other))
				}
				r++
			}
		}
		if into == nil || r == 0 {
			e.acc[v] = acc
		}
		e.hasAcc[v] = r > 0
		reads[worker] += r
	})
	var total int64
	for _, r := range reads {
		total += r
	}
	return total, busy, mode
}

// applyPhase runs Apply per active vertex. Each worker times its granule
// loops so WORK approximates CPU time in the user apply function without
// paying a clock read per vertex. Returns the update count, summed apply
// time (the WORK numerator — per-worker busy, not phase wall), the
// per-worker busy breakdown and the schedule mode executed.
func (e *engine[S, A]) applyPhase() (int64, time.Duration, []time.Duration, string) {
	updates := make([]int64, e.workers)
	times := make([]time.Duration, e.workers)
	mode := e.forActive(None, times, func(worker int, v uint32) {
		e.state[v] = e.p.Apply(v, e.state[v], e.acc[v], e.hasAcc[v])
		updates[worker]++
	})
	var u int64
	var d time.Duration
	for w := 0; w < e.workers; w++ {
		u += updates[w]
		d += times[w]
	}
	return u, d, times, mode
}

// scatterPhase runs Scatter per active vertex and signals neighbors.
// Returns the message count, per-worker busy time and the schedule mode.
func (e *engine[S, A]) scatterPhase() (int64, []time.Duration, string) {
	busy := make([]time.Duration, e.workers)
	if e.scatterD == None {
		// No scan runs at all; the trace records no mode for this phase.
		return 0, busy, ""
	}
	msgs := make([]int64, e.workers)
	mode := e.forActive(e.scatterD, busy, func(worker int, v uint32) {
		self := e.state[v]
		m := int64(0)
		if e.scatterD == Out || e.scatterD == Both {
			lo, hi := e.g.OutArcRange(v)
			for a := lo; a < hi; a++ {
				arc := Arc{Index: a, Other: e.g.ArcTarget(a), Weight: e.g.ArcWeight(a)}
				if e.p.Scatter(v, arc, self, e.state[arc.Other]) {
					e.next.Set(arc.Other)
					m++
				}
			}
		}
		if e.scatterD == In || e.scatterD == Both {
			lo, hi := e.g.InArcRange(v)
			for a := lo; a < hi; a++ {
				out := e.g.InArcToOutArc(a)
				arc := Arc{Index: out, Other: e.g.InArcSource(a), Weight: e.g.ArcWeight(out)}
				if e.p.Scatter(v, arc, self, e.state[arc.Other]) {
					e.next.Set(arc.Other)
					m++
				}
			}
		}
		msgs[worker] += m
	})
	var total int64
	for _, m := range msgs {
		total += m
	}
	return total, busy, mode
}
