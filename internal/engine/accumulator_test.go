package engine

import (
	"math"
	"runtime/debug"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// wideVotes is an accumulator wider than two words, the kind Accumulator
// exists for.
type wideVotes [16]float64

// wideVote gathers both directions; each arc votes weight×neighbor into
// the slot of the arc's index.
type wideVote struct{}

func (wideVote) Init(_ *graph.Graph, v uint32) (float64, bool) { return 1 + float64(v%7), true }
func (wideVote) GatherDirection() Direction                    { return Both }
func (wideVote) Gather(_ uint32, e Arc, _, other float64) wideVotes {
	var c wideVotes
	c[e.Index%16] = e.Weight * other
	return c
}
func (wideVote) Sum(a, b wideVotes) wideVotes {
	for i := range a {
		a[i] += b[i]
	}
	return a
}
func (p wideVote) GatherInto(acc *wideVotes, first bool, v uint32, e Arc, self, other float64) {
	if first {
		*acc = p.Gather(v, e, self, other)
		return
	}
	for i := range acc {
		c := 0.0
		if i == int(e.Index%16) {
			c = float64(e.Weight * other)
		}
		acc[i] += c
	}
}
func (wideVote) Apply(_ uint32, self float64, acc wideVotes, _ bool) float64 { return self + acc[0] }
func (wideVote) ScatterDirection() Direction                                 { return Out }
func (wideVote) Scatter(uint32, Arc, float64, float64) bool                  { return true }

// byValueVote hides wideVote's GatherInto, so the engine folds through
// Gather and Sum.
type byValueVote struct{ Program[float64, wideVotes] }

// TestGatherPhaseInPlace drives the engine's own gather phase over a
// directed graph (both CSR legs) with an Accumulator program and with the
// same program by value. The accumulators must be bit-identical, and
// neither path may allocate per vertex or per arc: a gather phase over 8×
// the arcs makes exactly as many allocations.
func TestGatherPhaseInPlace(t *testing.T) {
	graphs := make([]*graph.Graph, 2)
	for i, edges := range []int64{16_000, 128_000} {
		g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: 2.2, Seed: 17, Directed: true, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	for _, workers := range []int{1, 2} {
		for _, mode := range []FrontierMode{FrontierDense, FrontierSparse} {
			var allocs [2][2]float64 // [in place, by value][small, large]
			for gi, g := range graphs {
				in := newEngine[float64, wideVotes](g, wideVote{}, workers, mode)
				by := newEngine[float64, wideVotes](g, byValueVote{wideVote{}}, workers, mode)
				if in.into == nil || by.into != nil {
					t.Fatal("Accumulator detection: want in-place for wideVote only")
				}
				in.countAndPlan()
				by.countAndPlan()
				// The second phase folds over the first one's accumulators,
				// as every iteration after the first does.
				in.gatherPhase()
				inReads, _, _ := in.gatherPhase()
				byReads, _, _ := by.gatherPhase()
				if inReads != byReads || inReads != 2*g.NumArcs() {
					t.Fatalf("workers=%d frontier=%v: reads %d in place, %d by value, want %d",
						workers, mode, inReads, byReads, 2*g.NumArcs())
				}
				for v := range by.acc {
					if in.hasAcc[v] != by.hasAcc[v] {
						t.Fatalf("vertex %d hasAcc %t in place, %t by value", v, in.hasAcc[v], by.hasAcc[v])
					}
					for i := range by.acc[v] {
						if math.Float64bits(in.acc[v][i]) != math.Float64bits(by.acc[v][i]) {
							t.Fatalf("vertex %d slot %d: %v in place, %v by value", v, i, in.acc[v][i], by.acc[v][i])
						}
					}
				}
				// A collection cycle allocates in the runtime itself.
				gc := debug.SetGCPercent(-1)
				allocs[0][gi] = testing.AllocsPerRun(10, func() { in.gatherPhase() })
				allocs[1][gi] = testing.AllocsPerRun(10, func() { by.gatherPhase() })
				debug.SetGCPercent(gc)
			}
			for k, path := range []string{"in place", "by value"} {
				if allocs[k][0] != allocs[k][1] {
					t.Errorf("workers=%d frontier=%v %s: %v allocations per gather phase over %d arcs, %v over %d",
						workers, mode, path, allocs[k][0], graphs[0].NumArcs(), allocs[k][1], graphs[1].NumArcs())
				}
			}
			t.Logf("workers=%d frontier=%v: allocations per gather phase %v in place, %v by value",
				workers, mode, allocs[0][0], allocs[1][0])
		}
	}
}
