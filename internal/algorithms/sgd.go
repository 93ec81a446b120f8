package algorithms

import (
	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// sgdProgram minimizes squared rating-reconstruction error by gradient
// descent (§2.1: "a gradient descent optimization method for minimizing an
// objective function that is written as a sum of differentiable
// functions"). In the synchronous GAS model each vertex accumulates its
// edge gradients in gather and steps in apply; both sides update every
// iteration, all vertices stay active, and the run stops at the paper's
// 20-iteration cap. SGD "requires the most message transferring" (Fig. 13)
// because every vertex signals every rated counterpart every iteration.
type sgdProgram struct {
	lr    float64
	reg   float64
	iters int
}

func (p *sgdProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	return cfState{F: initFactor(v, 0.5)}, true
}

func (p *sgdProgram) GatherDirection() engine.Direction { return engine.Both }

// Gather returns the gradient contribution of one rating:
// err·f_other where err = rating − ⟨f_self, f_other⟩.
func (p *sgdProgram) Gather(_ uint32, e engine.Arc, self, other cfState) cfFactor {
	errTerm := e.Weight - cfDot(&self.F, &other.F)
	var g cfFactor
	for i := 0; i < cfRank; i++ {
		g[i] = errTerm * other.F[i]
	}
	return g
}

func (p *sgdProgram) Sum(a, b cfFactor) cfFactor {
	for i := 0; i < cfRank; i++ {
		a[i] += b[i]
	}
	return a
}

// GatherInto is Gather+Sum folded into v's gradient in place
// (engine.Accumulator).
func (p *sgdProgram) GatherInto(acc *cfFactor, first bool, _ uint32, e engine.Arc, self, other cfState) {
	errTerm := e.Weight - cfDot(&self.F, &other.F)
	if first {
		for i := 0; i < cfRank; i++ {
			acc[i] = errTerm * other.F[i]
		}
		return
	}
	for i := 0; i < cfRank; i++ {
		acc[i] += float64(errTerm * other.F[i])
	}
}

func (p *sgdProgram) Apply(_ uint32, self cfState, acc cfFactor, hasAcc bool) cfState {
	if !hasAcc {
		return self
	}
	for i := 0; i < cfRank; i++ {
		self.F[i] += p.lr * (acc[i] - p.reg*self.F[i])
	}
	return self
}

func (p *sgdProgram) ScatterDirection() engine.Direction { return engine.Both }

func (p *sgdProgram) Scatter(uint32, engine.Arc, cfState, cfState) bool { return true }

func (p *sgdProgram) PostIteration(c *engine.Control[cfState]) bool {
	if c.Iteration() >= p.iters-1 {
		return true
	}
	// Keep even isolated vertices active for the paper's all-active
	// lifecycle (§4.3).
	c.ActivateAll()
	return false
}

// SGDOptions extends Options with the learning schedule.
type SGDOptions struct {
	Options
	// LearningRate defaults to 0.01.
	LearningRate float64
	// Regularization defaults to 0.05.
	Regularization float64
	// Iterations defaults to 20 (the paper's cap).
	Iterations int
}

// StochasticGradientDescent factorizes the rating graph by gradient
// steps. Summary reports "rmse".
func StochasticGradientDescent(g *graph.Graph, numUsers int, opt SGDOptions) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	lr := opt.LearningRate
	if lr == 0 {
		lr = 0.01
	}
	reg := opt.Regularization
	if reg == 0 {
		reg = 0.05
	}
	iters := opt.Iterations
	if iters == 0 {
		iters = cfIterationCap
	}
	p := &sgdProgram{lr: lr, reg: reg, iters: iters}
	res, err := engine.Run[cfState, cfFactor](g, p, opt.engineOptions())
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
