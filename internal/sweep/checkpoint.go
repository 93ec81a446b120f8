package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
)

// metricJournalWrites counts journal writes (one per Record).
var metricJournalWrites = obs.Default().Counter("gcbench_sweep_journal_writes_total", "Checkpoint journal records written.")

// JournalEntry is one checkpoint record: the final outcome of one spec,
// keyed by the spec's ID. Successful entries embed the measured behavior
// run so a resumed campaign can rebuild the full corpus without
// re-executing anything.
type JournalEntry struct {
	ID     string             `json:"id"`
	Spec   Spec               `json:"spec"`
	Status behavior.RunStatus `json:"status"`
	// Attempts and DurationMs mirror the RunResult accounting.
	Attempts   int           `json:"attempts"`
	DurationMs int64         `json:"durationMs"`
	Err        string        `json:"error,omitempty"`
	Run        *behavior.Run `json:"run,omitempty"`
	// Provenance carries the run's execution environment and start/end
	// timestamps into the checkpoint, so a resumed campaign's corpus
	// still documents where every measurement came from.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// entryOf converts a finished RunResult into its journal record.
func entryOf(r RunResult) JournalEntry {
	return JournalEntry{
		ID:         r.Spec.ID(),
		Spec:       r.Spec,
		Status:     r.Status,
		Attempts:   r.Attempts,
		DurationMs: r.Duration.Milliseconds(),
		Err:        r.Err,
		Run:        r.Run,
		Provenance: r.Provenance,
	}
}

// Journal is a campaign checkpoint: an append-only JSONL file with one
// JournalEntry per line. Re-recording a spec ID (a failed run retried by
// a resumed campaign) replaces the earlier entry.
//
// Durability: the first Record after OpenJournal rewrites the whole
// journal atomically (temp file + fsync + rename in the journal's
// directory), which drops a torn final line and superseded entries left
// by an earlier process. Every later Record appends its one line and
// fsyncs it, so a campaign writes O(n) bytes in total and a kill can
// tear at most the final line, which LoadJournal drops. A failed append
// closes the file, and the next Record starts over with a rewrite.
type Journal struct {
	path string

	mu      sync.Mutex
	order   []string
	entries map[string]JournalEntry
	// f is the journal opened for appending, nil until the first Record
	// has rewritten the file.
	f *os.File
}

// OpenJournal loads the journal at path for resume. It only reads: a
// missing file is an empty journal, and nothing is written until the
// first Record. A trailing partial line — a write cut off by a kill — is
// tolerated and dropped.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, entries: make(map[string]JournalEntry)}
	entries, err := LoadJournal(path)
	if err != nil {
		if os.IsNotExist(err) {
			return j, nil
		}
		return nil, err
	}
	for _, e := range entries {
		j.order = append(j.order, e.ID)
		j.entries[e.ID] = e
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct spec IDs recorded.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// CompletedCount returns how many recorded entries are StatusOK.
func (j *Journal) CompletedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Status == behavior.StatusOK {
			n++
		}
	}
	return n
}

// Completed returns the journaled behavior run for spec if a successful
// entry exists for the same spec identity (ID and seed — a journal from a
// different campaign seed never satisfies a resume). Failed or timed-out
// entries return false so a resumed campaign re-executes them.
func (j *Journal) Completed(spec Spec) (*behavior.Run, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[spec.ID()]
	if !ok || e.Status != behavior.StatusOK || e.Run == nil || e.Spec.Seed != spec.Seed {
		return nil, false
	}
	return e.Run, true
}

// Entries returns the recorded entries in first-recorded order.
func (j *Journal) Entries() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEntry, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.entries[id])
	}
	return out
}

// Record checkpoints one finished spec: it appends the entry's JSON line
// and fsyncs it (the first Record rewrites the whole journal instead).
// Safe for concurrent use by campaign worker goroutines.
func (j *Journal) Record(e JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[e.ID]; !ok {
		j.order = append(j.order, e.ID)
	}
	j.entries[e.ID] = e
	metricJournalWrites.Inc()
	if j.f == nil {
		return j.rewriteLocked()
	}
	if err := j.appendLocked(e); err != nil {
		// The file may now end in a partial line: drop the handle so the
		// next Record rewrites the journal clean.
		j.f.Close()
		j.f = nil
		return err
	}
	return nil
}

// appendLocked writes e as one JSON line at the end of the journal and
// fsyncs it.
func (j *Journal) appendLocked(e JournalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// rewriteLocked writes the in-memory journal through flushLocked and
// opens the result for appending.
func (j *Journal) rewriteLocked() error {
	if err := j.flushLocked(); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	j.f = f
	return nil
}

// Close closes the journal's file. Every recorded entry is already on
// disk; a Record after Close rewrites the journal and reopens it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// flushLocked writes every entry as one JSON line to a temp file in the
// journal's directory, fsyncs, and renames it over the journal path.
func (j *Journal) flushLocked() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	for _, id := range j.order {
		if err := enc.Encode(j.entries[id]); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), j.path)
}

// LoadJournal reads a journal file's entries. A final partial line is
// dropped; a malformed line elsewhere is an error. A spec ID recorded
// more than once keeps its last entry at its first-recorded position.
func LoadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readJournal(f, path)
}

// readJournal is LoadJournal over any reader; name labels its errors.
func readJournal(r io.Reader, name string) ([]JournalEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	var entries []JournalEntry
	at := make(map[string]int) // spec ID -> index in entries
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(text, &e); err != nil {
			// Only tolerate corruption on the final line (torn write).
			pendingErr = fmt.Errorf("sweep: journal %s line %d: %w", name, line, err)
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		if i, ok := at[e.ID]; ok {
			entries[i] = e
			continue
		}
		at[e.ID] = len(entries)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: reading journal %s: %w", name, err)
	}
	return entries, nil
}

// Summary renders a one-line résumé of the journal for CLI output.
func (j *Journal) Summary() string {
	entries := j.Entries()
	ok, failed := 0, 0
	for _, e := range entries {
		if e.Status == behavior.StatusOK {
			ok++
		} else {
			failed++
		}
	}
	return fmt.Sprintf("%d checkpointed (%d ok, %d failed)", len(entries), ok, failed)
}
