package corpus

import (
	"fmt"
	"slices"

	"gcbench/internal/behavior"
	"gcbench/internal/report"
)

// Index is the key, filter and ensemble-pool index over an ordered
// record list: the one implementation behind both a Snapshot's queries
// and a shard partition's, so a scattered select can never diverge from
// a whole-corpus scan. Positions are the records' indices in the order
// they were added. An Index is read-only once built.
type Index struct {
	recs     []*Record
	byKey    map[string]int
	byAlg    map[string][]int
	bySize   map[string][]int
	byStatus map[behavior.RunStatus][]int
	// byModel indexes records by effective execution model ("" → "gas").
	byModel map[string][]int
	// pool lists the positions of ensemble-pool members, ascending;
	// poolOf maps a position to its pool ordinal (-1 for non-members).
	pool   []int
	poolOf []int
}

func newIndex(n int) *Index {
	return &Index{
		recs:     make([]*Record, 0, n),
		byKey:    make(map[string]int, n),
		byAlg:    map[string][]int{},
		bySize:   map[string][]int{},
		byStatus: map[behavior.RunStatus][]int{},
		byModel:  map[string][]int{},
		poolOf:   make([]int, 0, n),
	}
}

// NewIndex indexes recs in order. Every record must already carry a
// unique key.
func NewIndex(recs []*Record) (*Index, error) {
	ix := newIndex(len(recs))
	for _, rec := range recs {
		if rec.Key == "" {
			return nil, fmt.Errorf("corpus: record %d has no key", len(ix.recs))
		}
		if prev, dup := ix.byKey[rec.Key]; dup {
			return nil, fmt.Errorf("corpus: duplicate key %q (records %d and %d)", rec.Key, prev, len(ix.recs))
		}
		ix.add(rec)
	}
	return ix, nil
}

// add appends rec at the next position; its key must be free.
func (ix *Index) add(rec *Record) {
	i := len(ix.recs)
	ix.recs = append(ix.recs, rec)
	ix.byKey[rec.Key] = i
	ix.byAlg[rec.Algorithm] = append(ix.byAlg[rec.Algorithm], i)
	ix.bySize[rec.SizeLabel] = append(ix.bySize[rec.SizeLabel], i)
	ix.byStatus[rec.Status] = append(ix.byStatus[rec.Status], i)
	m := behavior.EffectiveModel(rec.Model)
	ix.byModel[m] = append(ix.byModel[m], i)
	if poolMember(rec) {
		ix.poolOf = append(ix.poolOf, len(ix.pool))
		ix.pool = append(ix.pool, i)
	} else {
		ix.poolOf = append(ix.poolOf, -1)
	}
}

// Lookup returns the position of the record with key.
func (ix *Index) Lookup(key string) (int, bool) {
	i, ok := ix.byKey[key]
	return i, ok
}

// PoolSize returns the number of ensemble-pool members.
func (ix *Index) PoolSize() int { return len(ix.pool) }

// PoolOf returns the pool ordinal of the record at position i, or -1
// when it is not a pool member or i is out of range.
func (ix *Index) PoolOf(i int) int {
	if i < 0 || i >= len(ix.poolOf) {
		return -1
	}
	return ix.poolOf[i]
}

// Select returns the positions of the records matching f, ascending, in
// a fresh slice. With poolOnly only ensemble-pool members match, and f's
// status restriction is ignored (pool membership already implies status
// ok). The dimension whose index lists are shortest in total narrows
// the candidates before the full predicate runs, so restricted queries
// never scan the corpus.
func (ix *Index) Select(f Filter, poolOnly bool) []int {
	var lists [][]int
	best := -1
	consider := func(l [][]int) {
		n := 0
		for _, x := range l {
			n += len(x)
		}
		if best < 0 || n < best {
			lists, best = l, n
		}
	}
	if poolOnly {
		f.Statuses = nil
		consider([][]int{ix.pool})
	}
	if len(f.Algorithms) > 0 {
		consider(lookupAll(ix.byAlg, f.Algorithms, identity))
	}
	if len(f.Sizes) > 0 {
		consider(lookupAll(ix.bySize, f.Sizes, identity))
	}
	if len(f.Statuses) > 0 {
		consider(lookupAll(ix.byStatus, f.Statuses, identity))
	}
	if len(f.Models) > 0 {
		consider(lookupAll(ix.byModel, f.Models, behavior.EffectiveModel))
	}
	var candidates []int
	switch {
	case best < 0:
		// No indexed restriction: scan.
		candidates = make([]int, len(ix.recs))
		for i := range candidates {
			candidates[i] = i
		}
	case len(lists) == 1:
		candidates = lists[0]
	default:
		for _, l := range lists {
			candidates = append(candidates, l...)
		}
		slices.Sort(candidates)
		// A value repeated in the filter repeats its list.
		candidates = slices.Compact(candidates)
	}
	out := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if (!poolOnly || ix.poolOf[i] >= 0) && f.Matches(ix.recs[i]) {
			out = append(out, i)
		}
	}
	return out
}

func identity[K comparable](k K) K { return k }

// lookupAll returns the index lists of every filter value.
func lookupAll[K comparable](m map[K][]int, vals []K, norm func(K) K) [][]int {
	out := make([][]int, len(vals))
	for i, v := range vals {
		out[i] = m[norm(v)]
	}
	return out
}

// Models returns the distinct effective execution models indexed,
// sorted ("gas" covers untagged pre-model-axis records).
func (ix *Index) Models() []string {
	out := make([]string, 0, len(ix.byModel))
	for m := range ix.byModel {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// poolMember reports whether rec belongs to the §5.2 ensemble-design
// pool: a measured graph-varying run.
func poolMember(rec *Record) bool {
	if rec.Status != behavior.StatusOK || rec.Run == nil {
		return false
	}
	return slices.Contains(report.GraphVaryingAlgorithms, rec.Algorithm)
}
