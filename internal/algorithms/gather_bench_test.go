package algorithms

import (
	"runtime/debug"
	"testing"
	"time"

	"gcbench/internal/engine"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// gatherOptions runs the engine serially under the dense frontier for a
// few iterations: enough to time the gather phase, short enough that every
// run does the same work.
var gatherOptions = engine.Options{Workers: 1, Frontier: engine.FrontierDense, MaxIterations: 3}

// gatherOnly runs a program's gather and nothing after it: Apply keeps
// the state, Scatter signals no one and the iteration hooks are hidden. A
// run's allocations are then the engine's fixed ones plus the gather's.
type gatherOnly[S, A any] struct{ engine.Program[S, A] }

func (gatherOnly[S, A]) Apply(_ uint32, self S, _ A, _ bool) S { return self }
func (gatherOnly[S, A]) Scatter(uint32, engine.Arc, S, S) bool { return false }

// gatherOnlyInto is gatherOnly for an engine.Accumulator: the engine
// still folds in place.
type gatherOnlyInto[S, A any] struct {
	gatherOnly[S, A]
	engine.Accumulator[S, A]
}

// gatherAllocs is the allocation count of one engine run of p's gather
// phase over g, through GatherInto when p has it.
func gatherAllocs[S, A any](t *testing.T, g *graph.Graph, p engine.Program[S, A]) float64 {
	var run engine.Program[S, A] = gatherOnly[S, A]{p}
	if into, ok := p.(engine.Accumulator[S, A]); ok {
		run = gatherOnlyInto[S, A]{gatherOnly[S, A]{p}, into}
	}
	opt := engine.Options{Workers: 1, Frontier: engine.FrontierDense, MaxIterations: 1}
	// A collection cycle allocates in the runtime itself, and a larger
	// input runs more of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, func() {
		if _, err := engine.Run[S, A](g, run, opt); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGatherAllocsIndependentOfArcs runs the engine's gather phase for
// each benchmarked kernel at two input sizes and requires the same
// allocation count: the run's fixed allocations only, none per vertex or
// per arc in the gather loop or the program's Gather or GatherInto.
func TestGatherAllocsIndependentOfArcs(t *testing.T) {
	type sized struct {
		arcs   int64
		allocs float64
	}
	dd := func(edges int64) sized {
		m, err := gen.MRF(gen.MRFConfig{NumEdges: edges, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := newDDProgram(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sized{m.G.NumArcs(), gatherAllocs[ddState, float64](t, m.G, p)}
	}
	km := func(edges int64) sized {
		g := kmGraph(t, edges, 0, 1)
		p, err := newKMProgram(g, KMeansOptions{K: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sized{g.NumArcs(), gatherAllocs[kmState, kmVotes](t, g, p)}
	}
	als := func(edges int64) sized {
		g, users := ratingGraph(t, edges, 2.5, 1)
		return sized{g.NumArcs(), gatherAllocs[cfState, alsAccum](t, g, &alsProgram{numUsers: users, lambda: 0.05, tol: 5e-3})}
	}
	for name, s := range map[string][2]sized{
		"DD":  {dd(1056), dd(1560)},
		"KM":  {km(2000), km(16000)},
		"ALS": {als(2000), als(16000)},
	} {
		if s[0].allocs != s[1].allocs {
			t.Errorf("%s: %v allocations per gather run over %d arcs, %v over %d",
				name, s[0].allocs, s[0].arcs, s[1].allocs, s[1].arcs)
		}
	}
}

// benchGather times engine runs of a freshly built program and reports the
// gather phases' wall time per arc read. allocs/op counts the run's fixed
// allocations and Apply's; TestGatherAllocsIndependentOfArcs pins the
// gather phase's as independent of the arc count.
func benchGather[S, A any](b *testing.B, g *graph.Graph, fresh func() engine.Program[S, A]) {
	b.ReportAllocs()
	b.ResetTimer()
	var gather time.Duration
	var reads int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := fresh()
		b.StartTimer()
		res, err := engine.Run[S, A](g, p, gatherOptions)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range res.Trace.Iterations {
			gather += it.GatherWall
			reads += it.EdgeReads
		}
	}
	b.ReportMetric(float64(gather.Nanoseconds())/float64(reads), "ns/arc")
}

// BenchmarkGatherDD is DD over the paper's largest MRF (1560 edges): an
// edge subproblem per arc from the tabulated costs.
func BenchmarkGatherDD(b *testing.B) {
	m, err := gen.MRF(gen.MRFConfig{NumEdges: 1560, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchGather(b, m.G, func() engine.Program[ddState, float64] {
		p, err := newDDProgram(m, 0)
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

// BenchmarkGatherKM is K-Means (16-entry votes, folded in place) over a
// 10^4-edge power-law graph.
func BenchmarkGatherKM(b *testing.B) {
	g := kmGraph(b, 10000, 0, 1)
	benchGather(b, g, func() engine.Program[kmState, kmVotes] {
		p, err := newKMProgram(g, KMeansOptions{K: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}

// BenchmarkGatherALS is ALS (rank-8 normal equations, folded in place)
// over a 10^4-rating bipartite graph.
func BenchmarkGatherALS(b *testing.B) {
	g, users := ratingGraph(b, 10000, 2.5, 1)
	benchGather(b, g, func() engine.Program[cfState, alsAccum] {
		return &alsProgram{numUsers: users, lambda: 0.05, tol: 5e-3}
	})
}
