package algorithms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"gcbench/internal/engine"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// byValue hides a program's GatherInto, so the engine folds its arcs
// through Gather and Sum: the oracle the in-place path must reproduce bit
// for bit. It forwards the optional iteration hooks; a program without
// one gets a no-op, which the engine cannot tell from a missing hook.
type byValue[S, A any] struct {
	engine.Program[S, A]
}

func (b byValue[S, A]) PreIteration(c *engine.Control[S]) {
	if pre, ok := b.Program.(engine.PreIterator[S]); ok {
		pre.PreIteration(c)
	}
}

func (b byValue[S, A]) PostIteration(c *engine.Control[S]) bool {
	if post, ok := b.Program.(engine.PostIterator[S]); ok {
		return post.PostIteration(c)
	}
	return false
}

// stateBits encodes a vertex state field by field; floats are written as
// their math.Float64bits, so signed zeros and NaN payloads count.
func stateBits(t *testing.T, s any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkInPlace runs a fresh program through GatherInto and through the
// by-value Gather/Sum path at Workers 1 and 4 under every frontier mode,
// and requires bitwise-equal final states and equal per-iteration
// behavior counters.
func checkInPlace[S, A any](t *testing.T, g *graph.Graph, fresh func() engine.Program[S, A]) {
	t.Helper()
	p := fresh()
	if _, ok := p.(engine.Accumulator[S, A]); !ok {
		t.Fatalf("%T does not implement engine.Accumulator", p)
	}
	for _, workers := range []int{1, 4} {
		for _, mode := range []engine.FrontierMode{engine.FrontierDense, engine.FrontierSparse, engine.FrontierAuto} {
			opt := engine.Options{Workers: workers, Frontier: mode, MaxIterations: 3000}
			want, err := engine.Run[S, A](g, byValue[S, A]{fresh()}, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Run[S, A](g, fresh(), opt)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("workers=%d frontier=%v", workers, mode)
			wi, gi := want.Trace.Iterations, got.Trace.Iterations
			if len(gi) != len(wi) || got.Trace.Converged != want.Trace.Converged {
				t.Fatalf("%s: %d iterations (converged %t), by-value %d (converged %t)",
					where, len(gi), got.Trace.Converged, len(wi), want.Trace.Converged)
			}
			for i := range wi {
				w, h := wi[i], gi[i]
				if h.Active != w.Active || h.Updates != w.Updates || h.EdgeReads != w.EdgeReads || h.Messages != w.Messages {
					t.Fatalf("%s: iteration %d counters active/updt/eread/msg %d/%d/%d/%d, by-value %d/%d/%d/%d",
						where, i, h.Active, h.Updates, h.EdgeReads, h.Messages, w.Active, w.Updates, w.EdgeReads, w.Messages)
				}
			}
			for v := range want.States {
				if !bytes.Equal(stateBits(t, got.States[v]), stateBits(t, want.States[v])) {
					t.Fatalf("%s: vertex %d state %+v, by-value %+v", where, v, got.States[v], want.States[v])
				}
			}
		}
	}
}

func TestInPlaceGatherMatchesByValue(t *testing.T) {
	t.Run("KM", func(t *testing.T) {
		g := kmGraph(t, 6000, 0, 11)
		checkInPlace(t, g, func() engine.Program[kmState, kmVotes] {
			p, err := newKMProgram(g, KMeansOptions{K: 6, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
	})
	cf, users := ratingGraph(t, 800, 2.5, 12)
	t.Run("ALS", func(t *testing.T) {
		checkInPlace(t, cf, func() engine.Program[cfState, alsAccum] {
			return &alsProgram{numUsers: users, lambda: 0.05, tol: 5e-3}
		})
	})
	t.Run("NMF", func(t *testing.T) {
		checkInPlace(t, cf, func() engine.Program[cfState, nmfAccum] {
			return &nmfProgram{iters: cfIterationCap}
		})
	})
	t.Run("SGD", func(t *testing.T) {
		checkInPlace(t, cf, func() engine.Program[cfState, cfFactor] {
			return &sgdProgram{lr: 0.01, reg: 0.05, iters: cfIterationCap}
		})
	})
	t.Run("LBP", func(t *testing.T) {
		m, err := gen.Grid(gen.GridConfig{Rows: 24, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		checkInPlace(t, m.G, func() engine.Program[lbpState, lbpBelief] {
			p, err := newLBPProgram(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
	})
}

// gatherArcs lists v's arcs in the order the engine gathers them:
// out-arcs, then in-arcs, as the direction asks (an undirected graph's two
// CSR sides are the same, so it gathers its out-arcs only).
func gatherArcs(g *graph.Graph, dir engine.Direction, v uint32) []engine.Arc {
	if !g.Directed() && dir != engine.None {
		dir = engine.Out
	}
	var arcs []engine.Arc
	if dir == engine.Out || dir == engine.Both {
		lo, hi := g.OutArcRange(v)
		for a := lo; a < hi; a++ {
			arcs = append(arcs, engine.Arc{Index: a, Other: g.ArcTarget(a), Weight: g.ArcWeight(a)})
		}
	}
	if dir == engine.In || dir == engine.Both {
		lo, hi := g.InArcRange(v)
		for a := lo; a < hi; a++ {
			out := g.InArcToOutArc(a)
			arcs = append(arcs, engine.Arc{Index: out, Other: g.InArcSource(a), Weight: g.ArcWeight(out)})
		}
	}
	return arcs
}

// checkAccumulators folds every vertex's arcs over the given states once
// through GatherInto and once through Gather/Sum, and requires the two
// accumulators to be bit-identical. It checks the program's side of the
// Accumulator contract; the engine's own loop is checked in
// internal/engine and by TestInPlaceGatherMatchesByValue.
func checkAccumulators[S, A any](t *testing.T, g *graph.Graph, p engine.Program[S, A], states []S) {
	t.Helper()
	into := p.(engine.Accumulator[S, A])
	for v := range states {
		var got, want A
		for i, arc := range gatherArcs(g, p.GatherDirection(), uint32(v)) {
			self, other := states[v], states[arc.Other]
			into.GatherInto(&got, i == 0, uint32(v), arc, self, other)
			if c := p.Gather(uint32(v), arc, self, other); i == 0 {
				want = c
			} else {
				want = p.Sum(want, c)
			}
		}
		if !bytes.Equal(stateBits(t, got), stateBits(t, want)) {
			t.Fatalf("%T: vertex %d accumulator %v, by-value %v", p, v, got, want)
		}
	}
}

// initStates returns the program's initial vertex states.
func initStates[S, A any](g *graph.Graph, p engine.Program[S, A]) []S {
	states := make([]S, g.NumVertices())
	for v := range states {
		states[v], _ = p.Init(g, uint32(v))
	}
	return states
}

// TestGatherIntoMatchesGatherSum compares the accumulators themselves,
// including inputs that produce signed zeros: −0 arc weights for KM and
// −0 factor entries for the CF programs. A GatherInto that added its
// first contribution to a zeroed slot, or skipped KM's zero votes on such
// weights, would turn a −0 into +0 here.
func TestGatherIntoMatchesGatherSum(t *testing.T) {
	g := kmGraph(t, 3000, 0, 21)
	km, err := newKMProgram(g, KMeansOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	checkAccumulators(t, g, km, initStates(g, km))

	// The same graph with every third edge weighted −0 and some +0.
	b := graph.NewBuilder(g.NumVertices(), false).Weighted()
	weights := []float64{math.Copysign(0, -1), 1, 0, 2.5, math.Copysign(0, -1), 1}
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			if v := g.ArcTarget(a); u < v {
				b.AddWeightedEdge(u, v, weights[int(a)%len(weights)])
			}
		}
	}
	zg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]float64, 0, 2*zg.NumVertices())
	for v := uint32(0); int(v) < zg.NumVertices(); v++ {
		pts = append(pts, g.Features(v)...)
	}
	if err := zg.SetFeatures(2, pts); err != nil {
		t.Fatal(err)
	}
	km, err = newKMProgram(zg, KMeansOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	checkAccumulators(t, zg, km, initStates(zg, km))

	cf, users := ratingGraph(t, 2000, 2.5, 22)
	negZero := func(states []cfState) []cfState {
		for v := range states {
			if v%3 == 0 {
				states[v].F[v%cfRank] = math.Copysign(0, -1)
			}
		}
		return states
	}
	als := &alsProgram{numUsers: users, lambda: 0.05, tol: 5e-3}
	checkAccumulators(t, cf, als, negZero(initStates(cf, als)))
	nmf := &nmfProgram{iters: cfIterationCap}
	checkAccumulators(t, cf, nmf, negZero(initStates(cf, nmf)))
	sgd := &sgdProgram{lr: 0.01, reg: 0.05, iters: cfIterationCap}
	checkAccumulators(t, cf, sgd, negZero(initStates(cf, sgd)))

	m, err := gen.Grid(gen.GridConfig{Rows: 16, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	lbp, err := newLBPProgram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkAccumulators(t, m.G, lbp, initStates(m.G, lbp))
}

// ddLogGather is DD with the gather formula the θ table replaced: the
// pairwise cost −log φ is recomputed for every state pair on every arc.
type ddLogGather struct{ *ddProgram }

func (p ddLogGather) Gather(v uint32, e engine.Arc, _, _ ddState) float64 {
	n := p.states()
	nu := p.m.Card[e.Other]
	myDual := p.dual[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	otherDual := p.dual[p.rev[e.Index]*int64(nu) : p.rev[e.Index]*int64(nu)+int64(nu)]
	best := math.Inf(1)
	bestXv := int32(0)
	for xv := 0; xv < n; xv++ {
		for xu := 0; xu < nu; xu++ {
			cost := -math.Log(p.m.PairwiseFor(e.Index, v, xv, xu)) +
				myDual[xv] + otherDual[xu]
			if cost < best {
				best = cost
				bestXv = int32(xv)
			}
		}
	}
	p.edgeMin[e.Index] = bestXv
	return best / 2
}

// TestDDPairCostTableMatchesLogOracle runs DD on the paper's four MRF
// sizes through the tabulated pairwise costs and through the per-arc
// logarithm, and requires bit-identical results. The generated
// potentials are symmetric, so a fifth MRF with asymmetric three-state
// potentials checks the table's orientation. The runs stop at 100 of the
// default 3000 iterations (no paper-size run converges before the cap) to
// keep the race-enabled suite short; every iteration exercises the same
// gather.
func TestDDPairCostTableMatchesLogOracle(t *testing.T) {
	const iterations = 100
	var mrfs []*graph.MRF
	for _, edges := range []int64{1056, 1190, 1406, 1560} {
		m, err := gen.MRF(gen.MRFConfig{NumEdges: edges, Seed: uint64(edges)})
		if err != nil {
			t.Fatal(err)
		}
		mrfs = append(mrfs, m)
	}
	mrfs = append(mrfs, asymmetricMRF(t, mrfs[0].G, 3))

	for _, m := range mrfs {
		name := fmt.Sprintf("%d edges, %d states", m.G.NumEdges(), m.Card[0])
		opt := DDOptions{Options: Options{Workers: 2, MaxIterations: iterations}}
		got, assign, err := DualDecomposition(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newDDProgram(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run[ddState, float64](m.G, ddLogGather{p}, engine.Options{Workers: 2, MaxIterations: iterations})
		if err != nil {
			t.Fatal(err)
		}
		want, wantAssign := p.output(res)

		if g, w := got.Trace.NumIterations(), want.Trace.NumIterations(); g != w {
			t.Fatalf("%s: %d iterations, oracle %d", name, g, w)
		}
		for _, k := range []string{"disagreements", "bestDual", "energy"} {
			if g, w := got.Summary[k], want.Summary[k]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: %s = %v, oracle %v", name, k, g, w)
			}
		}
		for v := range wantAssign {
			if assign[v] != wantAssign[v] {
				t.Fatalf("%s: vertex %d assigned %d, oracle %d", name, v, assign[v], wantAssign[v])
			}
		}
	}
}

// asymmetricMRF puts deterministic pseudo-random potentials with
// φ(a, b) ≠ φ(b, a) on g.
func asymmetricMRF(t *testing.T, g *graph.Graph, states int) *graph.MRF {
	t.Helper()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return 0.1 + float64(x>>11)/(1<<53)
	}
	card := make([]int, g.NumVertices())
	unary := make([][]float64, g.NumVertices())
	for v := range card {
		card[v] = states
		for s := 0; s < states; s++ {
			unary[v] = append(unary[v], next())
		}
	}
	pair := make([][]float64, g.NumEdges())
	for e := range pair {
		for i := 0; i < states*states; i++ {
			pair[e] = append(pair[e], next())
		}
	}
	m, err := graph.NewMRF(g, card, unary, pair)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
