package algorithms

import (
	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// cfIterationCap is the paper's iteration budget for the algorithms that
// do not converge on their own: "we set a maximum number of iterations
// (20) for these two algorithms [NMF and SGD]" (§3.3).
const cfIterationCap = 20

// nmfAccum carries the multiplicative-update numerator and denominator.
type nmfAccum struct {
	Num, Den cfFactor
}

// nmfProgram is Non-negative Matrix Factorization by Lee-Seung
// multiplicative updates over the observed ratings. Both sides update
// every iteration from the other side's previous factors (synchronous
// semantics make this a Jacobi-style update), keeping all vertices active
// for the entire lifecycle as the paper observes for NMF (§4.3).
type nmfProgram struct {
	iters int
}

func (p *nmfProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	return cfState{F: initFactor(v, 1)}, true
}

func (p *nmfProgram) GatherDirection() engine.Direction { return engine.Both }

func (p *nmfProgram) Gather(_ uint32, e engine.Arc, self, other cfState) nmfAccum {
	var acc nmfAccum
	pred := cfDot(&self.F, &other.F)
	for i := 0; i < cfRank; i++ {
		acc.Num[i] = e.Weight * other.F[i]
		acc.Den[i] = pred * other.F[i]
	}
	return acc
}

func (p *nmfProgram) Sum(a, b nmfAccum) nmfAccum {
	for i := 0; i < cfRank; i++ {
		a.Num[i] += b.Num[i]
		a.Den[i] += b.Den[i]
	}
	return a
}

// GatherInto is Gather+Sum folded into v's accumulator in place
// (engine.Accumulator).
func (p *nmfProgram) GatherInto(acc *nmfAccum, first bool, _ uint32, e engine.Arc, self, other cfState) {
	pred := cfDot(&self.F, &other.F)
	if first {
		for i := 0; i < cfRank; i++ {
			acc.Num[i] = e.Weight * other.F[i]
			acc.Den[i] = pred * other.F[i]
		}
		return
	}
	for i := 0; i < cfRank; i++ {
		acc.Num[i] += float64(e.Weight * other.F[i])
		acc.Den[i] += float64(pred * other.F[i])
	}
}

func (p *nmfProgram) Apply(_ uint32, self cfState, acc nmfAccum, hasAcc bool) cfState {
	if !hasAcc {
		return self
	}
	const eps = 1e-9
	for i := 0; i < cfRank; i++ {
		self.F[i] *= acc.Num[i] / (acc.Den[i] + eps)
	}
	return self
}

func (p *nmfProgram) ScatterDirection() engine.Direction { return engine.Both }

// Scatter signals unconditionally: the iteration budget, not quiescence,
// ends the run.
func (p *nmfProgram) Scatter(uint32, engine.Arc, cfState, cfState) bool { return true }

func (p *nmfProgram) PostIteration(c *engine.Control[cfState]) bool {
	if c.Iteration() >= p.iters-1 {
		return true
	}
	// Keep even isolated vertices active: NMF has "all vertices active for
	// entire lifecycle" (§4.3).
	c.ActivateAll()
	return false
}

// NMFOptions extends Options with the iteration budget (default 20, the
// paper's cap).
type NMFOptions struct {
	Options
	Iterations int
}

// NonnegativeMatrixFactorization factorizes the rating graph into
// non-negative rank-8 factors. Summary reports "rmse".
func NonnegativeMatrixFactorization(g *graph.Graph, numUsers int, opt NMFOptions) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	iters := opt.Iterations
	if iters == 0 {
		iters = cfIterationCap
	}
	p := &nmfProgram{iters: iters}
	res, err := engine.Run[cfState, nmfAccum](g, p, opt.engineOptions())
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
