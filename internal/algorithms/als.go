package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/linalg"
)

// cfRank is the latent factor rank shared by the collaborative-filtering
// algorithms. Fixed at compile time so gather accumulators are plain
// arrays with no per-edge allocation.
const cfRank = 8

// cfFactor is one latent factor vector.
type cfFactor [cfRank]float64

// cfDot is ⟨a, b⟩, each product rounded before it is added so the compiler
// cannot fuse the sum into FMA instructions (see engine.Accumulator).
func cfDot(a, b *cfFactor) float64 {
	d := 0.0
	for i := 0; i < cfRank; i++ {
		d += float64(a[i] * b[i])
	}
	return d
}

// cfState is a CF vertex's factor and the magnitude of its last update.
type cfState struct {
	F     cfFactor
	Delta float64
}

// initFactor deterministically seeds a vertex's factor from its ID.
func initFactor(v uint32, scale float64) cfFactor {
	var f cfFactor
	x := uint64(v)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := range f {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		// Map to (0, scale] — strictly positive so NMF can share it.
		f[i] = scale * (float64(x>>11)/(1<<53) + 1e-3)
	}
	return f
}

// alsAccum carries the per-vertex normal equations: A = Σ f·fᵀ over rated
// counterparts, b = Σ rating·f.
type alsAccum struct {
	A [cfRank * cfRank]float64
	B cfFactor
	N float64
}

// alsProgram is Alternating Least Squares (§2.1): users and items take
// turns solving their ridge-regularized least-squares subproblems. Users
// are sources and items targets of the bipartite rating arcs, so gathering
// and scattering Both directions gives each side exactly its ratings, and
// the alternation emerges from scatter signaling the opposite side.
type alsProgram struct {
	numUsers int
	lambda   float64
	tol      float64
}

func (p *alsProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	// Items get random factors; users start at zero and solve first.
	if int(v) < p.numUsers {
		return cfState{}, true
	}
	return cfState{F: initFactor(v, 1)}, false
}

func (p *alsProgram) GatherDirection() engine.Direction { return engine.Both }

func (p *alsProgram) Gather(_ uint32, e engine.Arc, _, other cfState) alsAccum {
	var acc alsAccum
	for i := 0; i < cfRank; i++ {
		fi := other.F[i]
		acc.B[i] = e.Weight * fi
		row := acc.A[i*cfRank : (i+1)*cfRank]
		for j := 0; j < cfRank; j++ {
			row[j] = fi * other.F[j]
		}
	}
	acc.N = 1
	return acc
}

func (p *alsProgram) Sum(a, b alsAccum) alsAccum {
	for i := range a.A {
		a.A[i] += b.A[i]
	}
	for i := range a.B {
		a.B[i] += b.B[i]
	}
	a.N += b.N
	return a
}

// GatherInto is Gather+Sum folded into v's normal equations in place
// (engine.Accumulator).
func (p *alsProgram) GatherInto(acc *alsAccum, first bool, _ uint32, e engine.Arc, _, other cfState) {
	if first {
		for i := 0; i < cfRank; i++ {
			fi := other.F[i]
			acc.B[i] = e.Weight * fi
			row := acc.A[i*cfRank : (i+1)*cfRank]
			for j := 0; j < cfRank; j++ {
				row[j] = fi * other.F[j]
			}
		}
		acc.N = 1
		return
	}
	for i := 0; i < cfRank; i++ {
		fi := other.F[i]
		acc.B[i] += float64(e.Weight * fi)
		row := acc.A[i*cfRank : (i+1)*cfRank]
		for j := 0; j < cfRank; j++ {
			row[j] += float64(fi * other.F[j])
		}
	}
	acc.N++
}

func (p *alsProgram) Apply(_ uint32, self cfState, acc alsAccum, hasAcc bool) cfState {
	if !hasAcc {
		return cfState{F: self.F}
	}
	// Ridge: (A + λ·n·I) f = b, weighted-λ ALS regularization.
	a := acc.A
	for i := 0; i < cfRank; i++ {
		a[i*cfRank+i] += p.lambda * acc.N
	}
	f, err := linalg.CholeskySolve(a[:], acc.B[:])
	if err != nil {
		// Numerically degenerate system: keep the old factor.
		return cfState{F: self.F}
	}
	var next cfState
	delta := 0.0
	for i := range f {
		next.F[i] = f[i]
		if d := math.Abs(f[i] - self.F[i]); d > delta {
			delta = d
		}
	}
	next.Delta = delta
	return next
}

func (p *alsProgram) ScatterDirection() engine.Direction { return engine.Both }

// Scatter wakes the opposite side while this side's factors still move.
func (p *alsProgram) Scatter(_ uint32, _ engine.Arc, self, _ cfState) bool {
	return self.Delta > p.tol
}

// ALSOptions extends Options with factorization parameters.
type ALSOptions struct {
	Options
	// Lambda is the ridge regularization weight (default 0.05).
	Lambda float64
	// Tolerance stops the alternation when no factor coordinate moves
	// more than this (default 5e-3).
	Tolerance float64
}

// AlternatingLeastSquares factorizes the bipartite rating graph (users are
// vertices [0, numUsers), items the rest) into rank-8 latent factors.
// Summary reports "rmse" over the observed ratings.
func AlternatingLeastSquares(g *graph.Graph, numUsers int, opt ALSOptions) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = 0.05
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 5e-3
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 500
	}
	p := &alsProgram{numUsers: numUsers, lambda: lambda, tol: tol}
	res, err := engine.Run[cfState, alsAccum](g, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	factors := make([]cfFactor, len(res.States))
	for v, s := range res.States {
		factors[v] = s.F
	}
	out := &Output{
		Trace:   res.Trace,
		Summary: map[string]float64{"rmse": ratingRMSE(g, factors)},
	}
	return out, factors, nil
}

// checkBipartite validates the CF input convention.
func checkBipartite(g *graph.Graph, numUsers int) error {
	if !g.Directed() || !g.Weighted() {
		return fmt.Errorf("algorithms: CF requires a directed weighted rating graph")
	}
	if numUsers <= 0 || numUsers >= g.NumVertices() {
		return fmt.Errorf("algorithms: numUsers %d outside (0, %d)", numUsers, g.NumVertices())
	}
	return nil
}

// ratingRMSE computes the root-mean-square reconstruction error over all
// observed ratings.
func ratingRMSE(g *graph.Graph, f []cfFactor) float64 {
	var se float64
	var n int64
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			pred := 0.0
			for i := 0; i < cfRank; i++ {
				pred += f[u][i] * f[v][i]
			}
			d := pred - g.ArcWeight(a)
			se += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / float64(n))
}
