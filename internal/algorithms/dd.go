package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// ddMaxStates bounds variable cardinality for fixed-size scratch.
const ddMaxStates = 4

// ddState is a vertex's current primal choice from its own subproblem,
// the disagreement count against its edge subproblems, and this vertex's
// contribution to the dual objective (its own subproblem minimum plus half
// of each incident edge subproblem's minimum).
type ddState struct {
	Assign   int32
	Disagree int32
	DualPart float64
}

// ddProgram solves MAP inference by projected-subgradient Dual
// Decomposition (§2.1: "solves a relaxation of difficult optimization
// problems by decomposing them into simpler sub-problems"). The MRF is
// decomposed into one subproblem per edge plus one per vertex, coupled by
// Lagrange multipliers λ_{v,e}(x_v) stored on the arcs (arc a = v→u holds
// v's duals for edge {v,u}).
//
// Each iteration:
//   - gather solves every incident edge subproblem (an edge read per arc):
//     min over (x_v, x_u) of θ_e − λ_{v,e}(x_v) − λ_{u,e}(x_u), recording
//     the minimizing x_v in arc-owned scratch;
//   - apply solves the vertex subproblem min_x θ_v(x) + Σ_e λ_{v,e}(x) and
//     counts disagreements with the edge minimizers;
//   - scatter takes the subgradient step λ_{v,e}(x) += step·(1[x = x̂_v^e]
//     − 1[x = x̂_v]) on the vertex's own duals, and signals neighbors.
//
// All vertices stay active every iteration (§4.4) and the decaying
// 1/√t step makes DD the slowest-converging algorithm in the suite, as
// the paper notes (three orders of magnitude more iterations than TC).
type ddProgram struct {
	m    *graph.MRF
	rev  []int64
	dual []float64 // numArcs × states: λ of the arc's source vertex
	// pairCost is θ_e(x_v, x_u) = −log φ_e(x_v, x_u) for every arc, seen
	// from the arc's source v: entry a·n² + x_v·n + x_u. The potentials
	// are constant, so it is tabulated once per run rather than taking a
	// logarithm per state pair, arc and iteration.
	pairCost []float64
	// edgeMin[a] is the x_v minimizer of arc a's edge subproblem as seen
	// from the source vertex of a; written during v's gather, read during
	// v's apply and scatter (vertex-owned).
	edgeMin []int32
	step0   float64
	step    float64
	theta   [][]float64 // negative log unary: θ_v(x) = -log ψ_v(x)

	// bestDual is the best (largest) dual lower bound seen so far — by
	// weak duality it never exceeds the MAP energy.
	bestDual float64
}

func (p *ddProgram) states() int { return p.m.Card[0] }

func (p *ddProgram) Init(_ *graph.Graph, _ uint32) (ddState, bool) {
	return ddState{Assign: 0, Disagree: math.MaxInt32}, true
}

func (p *ddProgram) GatherDirection() engine.Direction { return engine.Out }

// Gather solves one edge subproblem from v's perspective and records the
// minimizing x_v. The accumulated value is the subproblem minimum — the
// edge's contribution to the dual objective.
func (p *ddProgram) Gather(_ uint32, e engine.Arc, _, _ ddState) float64 {
	n := p.states()
	nu := p.m.Card[e.Other]
	myDual := p.dual[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	otherDual := p.dual[p.rev[e.Index]*int64(nu) : p.rev[e.Index]*int64(nu)+int64(nu)]
	te := p.pairCost[e.Index*int64(n*nu) : (e.Index+1)*int64(n*nu)]
	best := math.Inf(1)
	bestXv := int32(0)
	for xv := 0; xv < n; xv++ {
		for xu := 0; xu < nu; xu++ {
			// θ_e, shifted by the two endpoints' duals.
			cost := te[xv*nu+xu] + myDual[xv] + otherDual[xu]
			if cost < best {
				best = cost
				bestXv = int32(xv)
			}
		}
	}
	p.edgeMin[e.Index] = bestXv
	// Each edge subproblem is shared by two endpoints; halve so the dual
	// objective counts it once.
	return best / 2
}

func (p *ddProgram) Sum(a, b float64) float64 { return a + b }

// Apply solves the vertex subproblem and counts edge disagreements.
func (p *ddProgram) Apply(v uint32, _ ddState, acc float64, hasAcc bool) ddState {
	n := p.states()
	lo, hi := p.m.G.OutArcRange(v)
	best := math.Inf(1)
	bestX := int32(0)
	for x := 0; x < n; x++ {
		cost := p.theta[v][x]
		for a := lo; a < hi; a++ {
			cost -= p.dual[a*int64(n)+int64(x)]
		}
		if cost < best {
			best = cost
			bestX = int32(x)
		}
	}
	var dis int32
	for a := lo; a < hi; a++ {
		if p.edgeMin[a] != bestX {
			dis++
		}
	}
	dual := best
	if hasAcc {
		dual += acc // the halved incident-edge subproblem minima
	}
	return ddState{Assign: bestX, Disagree: dis, DualPart: dual}
}

func (p *ddProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter applies the subgradient step on the vertex's own duals and keeps
// the whole graph active.
func (p *ddProgram) Scatter(v uint32, e engine.Arc, self, _ ddState) bool {
	n := p.states()
	d := p.dual[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	em := p.edgeMin[e.Index]
	if em != self.Assign {
		// Push the edge minimizer up and the vertex minimizer down so the
		// two subproblems move toward agreement.
		d[em] += p.step
		d[self.Assign] -= p.step
	}
	return true
}

func (p *ddProgram) PostIteration(c *engine.Control[ddState]) bool {
	it := c.Iteration()
	p.step = p.step0 / math.Sqrt(float64(it+1))
	disagreements := 0
	dual := 0.0
	for _, s := range c.States() {
		disagreements += int(s.Disagree)
		dual += s.DualPart
	}
	if dual > p.bestDual || it == 0 {
		p.bestDual = dual
	}
	if disagreements == 0 {
		return true // primal agreement: MAP certificate
	}
	// All vertices (even isolated variables) stay active every iteration.
	c.ActivateAll()
	return false
}

// DDOptions extends Options with the subgradient schedule.
type DDOptions struct {
	Options
	// Step0 is the initial subgradient step (default 0.5); the schedule
	// is Step0/√t.
	Step0 float64
}

// DualDecomposition runs MAP inference on a pairwise MRF with uniform
// cardinality (≤ 4). It returns per-vertex assignments from the vertex
// subproblems. Summary reports "disagreements" at the final iteration and
// "energy" of the returned assignment (−log potential sum).
func DualDecomposition(m *graph.MRF, opt DDOptions) (*Output, []int, error) {
	p, err := newDDProgram(m, opt.Step0)
	if err != nil {
		return nil, nil, err
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 3000
	}
	res, err := engine.Run[ddState, float64](m.G, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	out, assign := p.output(res)
	return out, assign, nil
}

// newDDProgram validates the MRF and builds a fresh program over it, with
// its cost tables; step0 0 selects the default 0.5.
func newDDProgram(m *graph.MRF, step0 float64) (*ddProgram, error) {
	n := m.Card[0]
	if n > ddMaxStates {
		return nil, fmt.Errorf("algorithms: DD supports at most %d states, got %d", ddMaxStates, n)
	}
	for v, c := range m.Card {
		if c != n {
			return nil, fmt.Errorf("algorithms: DD requires uniform cardinality (vertex %d has %d, want %d)", v, c, n)
		}
	}
	if step0 == 0 {
		step0 = 0.5
	}
	g := m.G
	arcs := g.NumArcs()
	theta := make([][]float64, g.NumVertices())
	for v := range theta {
		theta[v] = make([]float64, n)
		for x := 0; x < n; x++ {
			theta[v][x] = -math.Log(m.Unary[v][x])
		}
	}
	pairCost := make([]float64, arcs*int64(n*n))
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		lo, hi := g.OutArcRange(v)
		for a := lo; a < hi; a++ {
			te := pairCost[a*int64(n*n) : (a+1)*int64(n*n)]
			for xv := 0; xv < n; xv++ {
				for xu := 0; xu < n; xu++ {
					te[xv*n+xu] = -math.Log(m.PairwiseFor(a, v, xv, xu))
				}
			}
		}
	}
	return &ddProgram{
		m:        m,
		rev:      g.ReverseArcs(),
		dual:     make([]float64, arcs*int64(n)),
		pairCost: pairCost,
		edgeMin:  make([]int32, arcs),
		step0:    step0,
		step:     step0,
		theta:    theta,
	}, nil
}

// output converts a finished run into the assignment and its summary.
func (p *ddProgram) output(res *engine.Result[ddState]) (*Output, []int) {
	assign := make([]int, len(res.States))
	disagreements := 0.0
	for v, s := range res.States {
		assign[v] = int(s.Assign)
		disagreements += float64(s.Disagree)
	}
	return &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"disagreements": disagreements,
			"energy":        mrfEnergy(p.m, assign),
			"bestDual":      p.bestDual,
		},
	}, assign
}

// mrfEnergy returns −log of the unnormalized probability of an assignment.
func mrfEnergy(m *graph.MRF, assign []int) float64 {
	var e float64
	for v := range assign {
		e += -math.Log(m.Unary[v][assign[v]])
	}
	g := m.G
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			if g.ArcTarget(a) < u {
				continue // count each edge once
			}
			e += -math.Log(m.PairwiseFor(a, u, assign[u], assign[g.ArcTarget(a)]))
		}
	}
	return e
}
