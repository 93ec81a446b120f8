// Package corpus is the serving-side store for behavior-run corpora: an
// immutable, indexed snapshot of measured runs (loaded from a
// `gcbench sweep` corpus JSON or a checkpoint journal) behind an
// atomically swappable Store, so a long-running server can hot-reload a
// refreshed corpus without dropping or torn-reading concurrent requests.
//
// A Snapshot is strictly read-only after construction: every index is
// built up front, queries never mutate shared state, and the ensemble
// pool (the §5.2 graph-varying runs, max-normalized) is materialized once
// per snapshot. Store.Swap publishes a new snapshot with a single atomic
// pointer store; readers that already hold the old snapshot finish their
// requests against a consistent view.
package corpus

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/predict"
	"gcbench/internal/sweep"
)

// Record is one corpus entry: a run (nil for failed/cancelled journal
// entries that never produced a measurement) plus its campaign outcome,
// addressable by a URL-safe Key.
type Record struct {
	// Key is the record's stable, URL-safe identifier, e.g. "PR_1e5_a2.5".
	Key string
	// Run is the measured behavior run; nil when Status is not "ok".
	Run *behavior.Run
	// Status is the campaign outcome ("ok" for corpus-file loads).
	Status behavior.RunStatus
	// Err carries the failure message of a non-ok journal entry.
	Err string
	// Spec echoes the identifying tuple for records without a Run.
	Algorithm string
	SizeLabel string
	Alpha     float64
	// Model is the execution model tag, empty for GAS (the pre-model-axis
	// encoding, so old corpora rebuild byte-identical keys and wire
	// payloads).
	Model string `json:",omitempty"`
}

// Snapshot is one immutable, fully indexed corpus version.
type Snapshot struct {
	// Version is assigned by the Store on publication (1, 2, ...).
	Version int64
	// Source is the file path or description the snapshot was loaded from.
	Source string
	// LoadedAt is the snapshot's construction time.
	LoadedAt time.Time

	// Records holds every entry in load order.
	Records []Record

	// Space is the max-normalized behavior space over the ok runs
	// (nil when the snapshot holds no ok runs).
	Space *behavior.Space
	// spaceRec maps Space index → Records index; spaceOf is its inverse
	// (-1 for records without a measurement).
	spaceRec []int
	spaceOf  []int

	// Pool is the §5.2 ensemble-design pool: the graph-varying ok runs,
	// normalized separately (nil when empty). Pool index j is the
	// index's pool ordinal j.
	Pool *behavior.Space

	ix *Index

	predOnce sync.Once
	pred     *predict.Predictor
	predErr  error

	// predBy holds the per-model predictors, built lazily like pred.
	predMu sync.Mutex
	predBy map[string]*modelPredictor
}

// modelPredictor is one lazily built per-model predictor.
type modelPredictor struct {
	p   *predict.Predictor
	err error
}

// Filter selects records. Empty slices mean "no restriction on this
// dimension"; alphas match within a 1e-9 tolerance; model names match by
// effective model, so "gas" selects both tagged and pre-model-axis
// (untagged) records.
type Filter struct {
	Algorithms []string
	Sizes      []string
	Alphas     []float64
	Statuses   []behavior.RunStatus
	Models     []string `json:",omitempty"`
}

// alphaMatch reports whether a is in the filter's alpha set.
func alphaMatch(alphas []float64, a float64) bool {
	for _, v := range alphas {
		if math.Abs(v-a) < 1e-9 {
			return true
		}
	}
	return false
}

// KeyOf renders the canonical record key for an identifying tuple:
// URL-safe, human-readable, unique within a campaign (collisions at load
// time get a numeric suffix).
func KeyOf(algorithm, sizeLabel string, alpha float64) string {
	if alpha == 0 {
		return fmt.Sprintf("%s_%s", algorithm, sizeLabel)
	}
	return fmt.Sprintf("%s_%s_a%s", algorithm, sizeLabel, strconv.FormatFloat(alpha, 'g', -1, 64))
}

// KeyOfModel renders the record key for a model-tagged tuple: non-GAS
// records get a model suffix (e.g. "PR_1e5_a2.5_pregel"), so identical
// specs under two execution models never collide, while GAS records keep
// their pre-model-axis keys byte-identical.
func KeyOfModel(model, algorithm, sizeLabel string, alpha float64) string {
	key := KeyOf(algorithm, sizeLabel, alpha)
	if m := behavior.EffectiveModel(model); m != behavior.ModelGAS {
		key += "_" + m
	}
	return key
}

// NewSnapshotFromRuns builds a snapshot from a measured run collection
// (every record has status ok).
func NewSnapshotFromRuns(runs []*behavior.Run, source string) (*Snapshot, error) {
	records := make([]Record, 0, len(runs))
	for _, r := range runs {
		records = append(records, okRecord(r))
	}
	return newSnapshot(records, source)
}

// okRecord wraps a measured run as an ok corpus record.
func okRecord(r *behavior.Run) Record {
	return Record{
		Run: r, Status: behavior.StatusOK,
		Algorithm: r.Algorithm, SizeLabel: r.SizeLabel, Alpha: r.Alpha, Model: r.Model,
	}
}

// NewSnapshotFromJournal builds a snapshot from checkpoint-journal
// entries, preserving failed/timeout/cancelled outcomes so the corpus
// accounts for every spec the campaign was asked to execute.
func NewSnapshotFromJournal(entries []sweep.JournalEntry, source string) (*Snapshot, error) {
	records := make([]Record, 0, len(entries))
	for _, e := range entries {
		rec := Record{
			Run: e.Run, Status: e.Status, Err: e.Err,
			Algorithm: string(e.Spec.Algorithm), SizeLabel: e.Spec.SizeLabel, Alpha: e.Spec.Alpha,
			Model: string(e.Spec.Model),
		}
		// A resumed-campaign journal marks restored runs "skipped"; for
		// serving they are measurements like any other.
		if rec.Status == behavior.StatusSkipped && rec.Run != nil {
			rec.Status = behavior.StatusOK
		}
		if rec.Run != nil {
			rec.Algorithm = rec.Run.Algorithm
			rec.SizeLabel = rec.Run.SizeLabel
			rec.Alpha = rec.Run.Alpha
			rec.Model = rec.Run.Model
		}
		records = append(records, rec)
	}
	return newSnapshot(records, source)
}

// NewSnapshotFromRecords builds a snapshot from pre-assembled records —
// the entry point the shard coordinator uses to rebuild its merged
// global view from per-shard partitions. Keys are (re)assigned by the
// same deterministic first-wins-suffix rule as every other constructor,
// so a record list in canonical sequence order yields exactly the keys,
// normalization and index layout a single-store load of the same
// records would. The records slice is retained and mutated (keys are
// written in place); pass a copy when the caller still shares it.
func NewSnapshotFromRecords(records []Record, source string) (*Snapshot, error) {
	return newSnapshot(records, source)
}

// LoadFile loads a snapshot from either corpus format: a runs JSON array
// (from `gcbench sweep -out`) or a JSONL checkpoint journal, detected by
// the first non-space byte.
func LoadFile(path string) (*Snapshot, error) {
	head, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if len(head) == 0 {
		// A zero-byte corpus is a torn write (a crashed `sweep -out`, a
		// truncate-then-write editor), never a valid collection; refusing
		// here keeps Store.Reload serving the previous snapshot instead
		// of publishing an empty corpus.
		return nil, fmt.Errorf("corpus: %s is empty (partial write?); refusing to load", path)
	}
	trimmed := strings.TrimLeft(string(head), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		runs, err := sweep.LoadRunsFile(path)
		if err != nil {
			return nil, fmt.Errorf("corpus: loading runs file %s: %w", path, err)
		}
		return NewSnapshotFromRuns(runs, path)
	}
	entries, err := sweep.LoadJournal(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: loading journal %s: %w", path, err)
	}
	return NewSnapshotFromJournal(entries, path)
}

func newSnapshot(records []Record, source string) (*Snapshot, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("corpus: empty corpus from %s", source)
	}
	s := &Snapshot{
		Source:   source,
		LoadedAt: time.Now(),
		Records:  records,
		spaceOf:  make([]int, len(records)),
		ix:       newIndex(len(records)),
	}
	var okRuns, poolRuns []*behavior.Run
	for i := range s.Records {
		rec := &s.Records[i]
		base := KeyOfModel(rec.Model, rec.Algorithm, rec.SizeLabel, rec.Alpha)
		key := base
		for n := 2; ; n++ {
			if _, taken := s.ix.Lookup(key); !taken {
				break
			}
			key = fmt.Sprintf("%s_%d", base, n)
		}
		rec.Key = key
		s.ix.add(rec)
		s.spaceOf[i] = -1
		if rec.Status == behavior.StatusOK && rec.Run != nil {
			okRuns = append(okRuns, rec.Run)
			s.spaceOf[i] = len(s.spaceRec)
			s.spaceRec = append(s.spaceRec, i)
			if s.ix.PoolOf(i) >= 0 {
				poolRuns = append(poolRuns, rec.Run)
			}
		}
	}
	if len(okRuns) > 0 {
		space, err := behavior.NewSpace(okRuns)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		s.Space = space
	}
	if len(poolRuns) > 0 {
		pool, err := behavior.NewSpace(poolRuns)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		s.Pool = pool
	}
	return s, nil
}

// Lookup returns the record index for a key.
func (s *Snapshot) Lookup(key string) (int, bool) { return s.ix.Lookup(key) }

// Select returns the indices of records matching the filter, ascending.
func (s *Snapshot) Select(f Filter) []int { return s.ix.Select(f, false) }

// Matches reports whether rec satisfies the filter — the single
// predicate behind every Index query, whole-corpus or shard partition.
func (f Filter) Matches(rec *Record) bool {
	if len(f.Algorithms) > 0 && !containsString(f.Algorithms, rec.Algorithm) {
		return false
	}
	if len(f.Sizes) > 0 && !containsString(f.Sizes, rec.SizeLabel) {
		return false
	}
	if len(f.Alphas) > 0 && !alphaMatch(f.Alphas, rec.Alpha) {
		return false
	}
	if len(f.Statuses) > 0 {
		found := false
		for _, st := range f.Statuses {
			if st == rec.Status {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(f.Models) > 0 {
		m := behavior.EffectiveModel(rec.Model)
		found := false
		for _, v := range f.Models {
			if behavior.EffectiveModel(v) == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func containsString(set []string, v string) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

// PoolSelect returns the Pool indices whose records match the filter's
// algorithm/size/alpha/model restrictions (status is implicitly ok —
// only measured runs enter the pool).
func (s *Snapshot) PoolSelect(f Filter) []int {
	out := s.ix.Select(f, true)
	for j, i := range out {
		out[j] = s.ix.PoolOf(i)
	}
	return out
}

// PoolIndexOf returns the Pool index of record i, or -1 when the record
// is not a pool member (or i is out of range).
func (s *Snapshot) PoolIndexOf(recIdx int) int { return s.ix.PoolOf(recIdx) }

// PoolRecord maps a Pool index back to its record.
func (s *Snapshot) PoolRecord(poolIdx int) *Record {
	return &s.Records[s.ix.pool[poolIdx]]
}

// SpaceRecord maps a Space index back to its record.
func (s *Snapshot) SpaceRecord(spaceIdx int) *Record {
	return &s.Records[s.spaceRec[spaceIdx]]
}

// SpaceIndexOf returns the Space index of record i, or -1 when the record
// carries no measurement.
func (s *Snapshot) SpaceIndexOf(recIdx int) int {
	if recIdx < 0 || recIdx >= len(s.spaceOf) {
		return -1
	}
	return s.spaceOf[recIdx]
}

// OKCount returns the number of measured runs.
func (s *Snapshot) OKCount() int { return len(s.spaceRec) }

// PoolSize returns the ensemble-design pool size.
func (s *Snapshot) PoolSize() int { return s.ix.PoolSize() }

// Predictor returns the snapshot's behavior predictor, built once from
// the ok runs on first use.
func (s *Snapshot) Predictor() (*predict.Predictor, error) {
	s.predOnce.Do(func() {
		if s.Space == nil {
			s.predErr = fmt.Errorf("corpus: no measured runs to predict from")
			return
		}
		s.pred, s.predErr = predict.New(s.Space.Runs)
	})
	return s.pred, s.predErr
}

// PredictorFor returns a predictor restricted to the measured runs of
// one execution model (empty or "gas" selects tagged-gas and untagged
// runs alike), built once per model on first use. Prediction stays
// within-model: the same computation traverses different event counts
// under different engines, so mixing models in one nearest-neighbor
// index would interpolate across incomparable points.
func (s *Snapshot) PredictorFor(model string) (*predict.Predictor, error) {
	m := behavior.EffectiveModel(model)
	s.predMu.Lock()
	defer s.predMu.Unlock()
	if s.predBy == nil {
		s.predBy = map[string]*modelPredictor{}
	}
	e, ok := s.predBy[m]
	if !ok {
		e = &modelPredictor{}
		var runs []*behavior.Run
		if s.Space != nil {
			for _, r := range s.Space.Runs {
				if behavior.EffectiveModel(r.Model) == m {
					runs = append(runs, r)
				}
			}
		}
		if len(runs) == 0 {
			e.err = fmt.Errorf("corpus: no measured %s runs to predict from", m)
		} else {
			e.p, e.err = predict.New(runs)
		}
		s.predBy[m] = e
	}
	return e.p, e.err
}

// Models returns the distinct effective execution models present in the
// snapshot, sorted ("gas" covers untagged pre-model-axis records).
func (s *Snapshot) Models() []string { return s.ix.Models() }

// Store publishes corpus snapshots to concurrent readers with atomic
// swap semantics. The zero value is not usable; construct with NewStore.
type Store struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Int64
	// pubMu serializes the read-modify-write publishers (Append, Reload)
	// against each other; readers never take it.
	pubMu sync.Mutex
}

// NewStore returns a store serving the given initial snapshot.
func NewStore(initial *Snapshot) *Store {
	st := &Store{}
	st.Swap(initial)
	return st
}

// Snapshot returns the current corpus version. The result is immutable;
// callers may hold it across an entire request while Swap publishes a
// newer version concurrently.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// Swap atomically publishes snap as the current version, assigning it the
// next version number, and returns the previous snapshot (nil on first
// publication).
func (st *Store) Swap(snap *Snapshot) *Snapshot {
	snap.Version = st.version.Add(1)
	return st.cur.Swap(snap)
}

// Reload loads the store's configured source path and publishes it. A
// source file that shrank to zero bytes (a partial rewrite caught
// mid-flight) is rejected and the current snapshot stays published.
func (st *Store) Reload() (*Snapshot, error) {
	return st.publish(func(cur *Snapshot) (*Snapshot, error) { return Reread(cur) })
}

// Append publishes the grown corpus Extend builds from the current
// snapshot. The swap is atomic: readers holding the previous snapshot
// finish against a consistent view, and concurrent Append/Reload
// publishers are serialized so no appended run is lost.
func (st *Store) Append(runs []*behavior.Run, from string) (*Snapshot, error) {
	return st.publish(func(cur *Snapshot) (*Snapshot, error) { return Extend(cur, runs, from) })
}

// publish swaps in next(current snapshot) under the publisher lock.
func (st *Store) publish(next func(*Snapshot) (*Snapshot, error)) (*Snapshot, error) {
	st.pubMu.Lock()
	defer st.pubMu.Unlock()
	snap, err := next(st.Snapshot())
	if err != nil {
		return nil, err
	}
	st.Swap(snap)
	return snap, nil
}

// Reread loads cur's source file afresh: the one reload rule behind both
// Store.Reload and the shard tier's cluster reload.
func Reread(cur *Snapshot) (*Snapshot, error) {
	if cur == nil || cur.Source == "" {
		return nil, fmt.Errorf("corpus: no reloadable source")
	}
	return LoadFile(cur.Source)
}

// Extend builds the grown corpus: cur's records plus one ok record per
// new measured run, re-keyed and re-indexed as a fresh, unpublished
// snapshot. It is the one append rule behind both Store.Append and the
// shard tier's cluster append. Rebuilding runs the snapshot's
// normalization from scratch, so the paper's max-normalization
// invariant — every behavior dimension ≤ 1.0 across the whole
// collection (§3.4) — holds however far the corpus grows: a new run
// that raises a dimension's maximum rescales every older point, it does
// not escape the unit cube. Keys of cur's records are stable (collision
// suffixes depend only on records before them). from names where the
// runs came from (e.g. a job ID) for the snapshot's Source annotation.
func Extend(cur *Snapshot, runs []*behavior.Run, from string) (*Snapshot, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("corpus: nothing to append")
	}
	if cur == nil {
		return nil, fmt.Errorf("corpus: no published snapshot to append to")
	}
	records := make([]Record, 0, len(cur.Records)+len(runs))
	records = append(records, cur.Records...)
	for _, r := range runs {
		records = append(records, okRecord(r))
	}
	source := cur.Source
	if source == "" {
		source = from
	}
	snap, err := newSnapshot(records, source)
	if err != nil {
		return nil, fmt.Errorf("corpus: appending %d runs from %s: %w", len(runs), from, err)
	}
	return snap, nil
}
