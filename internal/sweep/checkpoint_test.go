package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/behavior"
)

// journalChildEnv names the directory a re-executed test binary runs its
// journaled campaign in (TestJournalKillAndResume's child).
const journalChildEnv = "GCBENCH_TEST_JOURNAL_CHILD"

// killCampaignSpecs is the campaign the killed child runs and the parent
// resumes.
const killCampaignSpecs = 30

// TestJournalKillAndResume SIGKILLs a journaled campaign once some of its
// records are on disk, resumes it, and requires that at most the run in
// flight at the kill executes twice and that the final corpus and journal
// hold every spec exactly once.
func TestJournalKillAndResume(t *testing.T) {
	if dir := os.Getenv(journalChildEnv); dir != "" {
		runJournalChild(t, dir)
		return
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "campaign.journal")
	cmd := exec.Command(os.Args[0], "-test.run=^TestJournalKillAndResume$", "-test.count=1")
	cmd.Env = append(os.Environ(), journalChildEnv+"="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if entries, err := LoadJournal(jpath); err == nil && len(entries) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child journaled fewer than 5 runs in 30 s:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	journaled := map[string]bool{}
	entries, err := LoadJournal(jpath)
	if err != nil {
		t.Fatalf("journal unreadable after SIGKILL: %v", err)
	}
	for _, e := range entries {
		journaled[e.ID] = true
	}
	started := map[string]bool{}
	for _, l := range readLines(t, filepath.Join(dir, "started")) {
		started[strings.TrimSuffix(l, "\n")] = true
	}
	if len(journaled) == killCampaignSpecs {
		t.Fatalf("child finished all %d runs before the kill", killCampaignSpecs)
	}
	for id := range journaled {
		if !started[id] {
			t.Fatalf("journaled spec %s never started", id)
		}
	}

	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var mu sync.Mutex
	var executed []string
	specs := campaignSpecs(killCampaignSpecs)
	res, err := ExecuteCampaign(context.Background(), specs, Config{
		Parallel: 2, Workers: 1, Journal: j,
		InjectFault: func(s Spec) error {
			mu.Lock()
			executed = append(executed, s.ID())
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rerun := 0
	for _, id := range executed {
		if journaled[id] {
			t.Fatalf("journaled spec %s re-executed on resume", id)
		}
		if started[id] {
			rerun++
		}
	}
	if rerun > 1 {
		t.Fatalf("%d runs started before the kill re-executed, want at most the one in flight", rerun)
	}
	if res.Skipped != len(journaled) || len(executed) != len(specs)-len(journaled) {
		t.Fatalf("skipped %d, executed %d; want %d and %d",
			res.Skipped, len(executed), len(journaled), len(specs)-len(journaled))
	}
	if len(res.Runs) != len(specs) {
		t.Fatalf("corpus has %d runs, want %d", len(res.Runs), len(specs))
	}
	for i, r := range res.Runs {
		if r.SizeLabel != specs[i].SizeLabel {
			t.Fatalf("corpus entry %d is %s, want %s", i, r.SizeLabel, specs[i].SizeLabel)
		}
	}
	final, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range final {
		if seen[e.ID] || e.Status != behavior.StatusOK {
			t.Fatalf("final journal: entry %s duplicated or %s", e.ID, e.Status)
		}
		seen[e.ID] = true
	}
	if len(seen) != len(specs) {
		t.Fatalf("final journal has %d specs, want %d", len(seen), len(specs))
	}
}

// runJournalChild is the killed side of TestJournalKillAndResume: a
// serial journaled campaign that logs each spec as it starts and takes
// long enough per run to be killed part way.
func runJournalChild(t *testing.T, dir string) {
	started, err := os.OpenFile(filepath.Join(dir, "started"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer started.Close()
	j, err := OpenJournal(filepath.Join(dir, "campaign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, err = ExecuteCampaign(context.Background(), campaignSpecs(killCampaignSpecs), Config{
		Parallel: 1, Workers: 1, Journal: j,
		InjectFault: func(s Spec) error {
			if _, err := started.WriteString(s.ID() + "\n"); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readLines returns the file's newline-terminated lines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	return lines[:len(lines)-1]
}

// okEntry is a successful journal entry for spec.
func okEntry(s Spec) JournalEntry {
	return entryOf(RunResult{Spec: s, Status: behavior.StatusOK, Attempts: 1,
		Run: &behavior.Run{Algorithm: string(s.Algorithm), SizeLabel: s.SizeLabel}})
}

// TestJournalRecordAppendsOneLine pins the O(1) record: after the first
// Record, every Record — a re-recorded ID included — grows the file by
// exactly its own line. LoadJournal and the next OpenJournal collapse the
// re-recorded ID to its last entry at its first position.
func TestJournalRecordAppendsOneLine(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	specs := campaignSpecs(5)
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatalf("OpenJournal of a fresh path created a file (stat err %v)", err)
	}
	failed := entryOf(RunResult{Spec: specs[1], Status: behavior.StatusFailed, Attempts: 2, Err: "boom"})
	records := []JournalEntry{okEntry(specs[0]), failed, okEntry(specs[2]), okEntry(specs[1]), okEntry(specs[3])}
	var size int64
	for i, e := range records {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(jpath)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Size() != size+int64(len(line))+1 {
			t.Fatalf("Record %d grew the journal from %d to %d bytes, want +%d", i, size, st.Size(), len(line)+1)
		}
		size = st.Size()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	want := []JournalEntry{records[0], records[3], records[2], records[4]}
	got, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadJournal = %+v\nwant %+v", got, want)
	}
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(j2.Entries(), want) {
		t.Fatalf("OpenJournal entries = %+v\nwant %+v", j2.Entries(), want)
	}
	// The next process's first Record drops the superseded line.
	if err := j2.Record(okEntry(specs[4])); err != nil {
		t.Fatal(err)
	}
	if n := len(readLines(t, jpath)); n != 5 {
		t.Fatalf("rewritten journal has %d lines, want 5", n)
	}
}

// TestJournalLoadsRewriteFormat loads testdata/rewrite.journal, a journal
// written by the earlier rewrite-per-Record path (three ok runs and one
// failed run of campaignSpecs(4)): LoadJournal returns its lines' entries
// unchanged, and a resumed campaign appends to it.
func TestJournalLoadsRewriteFormat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "rewrite.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var want []JournalEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var e JournalEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	jpath := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadJournal = %d entries, want the fixture's %d lines unchanged", len(got), len(want))
	}

	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	specs := campaignSpecs(4)
	res, err := ExecuteCampaign(context.Background(), specs, Config{Parallel: 1, Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 3 || res.Completed != 1 {
		t.Fatalf("resume skipped %d and ran %d, want 3 and 1", res.Skipped, res.Completed)
	}
	entries, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.ID != specs[i].ID() || e.Status != behavior.StatusOK {
			t.Fatalf("entry %d is %s %s, want %s ok", i, e.ID, e.Status, specs[i].ID())
		}
	}
}

// FuzzLoadJournal feeds arbitrary bytes to LoadJournal's reader. It must
// never panic, and any entries it returns must re-encode, one line each,
// to a journal that loads back to the same entries.
func FuzzLoadJournal(f *testing.F) {
	// Short seeds: the fuzzer minimizes every input that finds new
	// coverage, and that takes minutes on a full-size journal line.
	valid := "{\"id\":\"<CC, s, 2.00>\",\"status\":\"ok\",\"run\":{\"raw\":[0.5,1e-9]}}\n" +
		"{\"id\":\"<PR, s, 2.00>\",\"status\":\"failed\",\"error\":\"boom\"}\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + "{\"id\":\"<KC, s, 2."))
	f.Add([]byte(valid + "{\"id\":\"<CC, s, 2.00>\",\"status\":\"timeout\"}\n"))
	f.Add([]byte("garbage\n{\"id\":\"x\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		entries, err := readJournal(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range entries {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("loaded entry does not re-encode: %v", err)
			}
		}
		again, err := readJournal(&buf, "re-encoded")
		if err != nil {
			t.Fatalf("re-encoded journal does not load: %v", err)
		}
		if len(again) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(again, entries)) {
			t.Fatalf("re-encoded journal loads %d entries, want %d identical", len(again), len(entries))
		}
	})
}
