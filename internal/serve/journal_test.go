package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

// writeJournal builds a journal on disk through the real append path and
// closes it, simulating a server that ran and then died.
func writeJournal(t *testing.T, path string, build func(*Journal)) {
	t.Helper()
	j, replayed, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("open fresh journal: %v", err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replayed))
	}
	build(j)
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
}

func testSubmit(id, tenant, key string) SubmitRecord {
	req := Request{Sections: []string{"table2"}, IdempotencyKey: key}
	return SubmitRecord{
		ID: id, Tenant: tenant, IdemKey: key,
		Fingerprint: requestFingerprint(req), Request: req,
	}
}

// TestJournalRoundTrip: submits and state transitions written through
// the append path replay verbatim — in submission order, each job
// carrying its last journaled state, error and sequence watermark.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path, func(j *Journal) {
		for _, rec := range []SubmitRecord{
			testSubmit("j000001", "alpha", "key-1"),
			testSubmit("j000002", "beta", ""),
			testSubmit("j000003", "alpha", ""),
		} {
			if err := j.AppendSubmit(rec); err != nil {
				t.Fatalf("append submit %s: %v", rec.ID, err)
			}
		}
		for _, rec := range []StateRecord{
			{ID: "j000001", State: StateRunning},
			{ID: "j000001", State: StateDone, Seq: 42},
			{ID: "j000002", State: StateRunning, Seq: 7},
			{ID: "j000003", State: StateFailed, Error: "synthetic", Seq: 3},
		} {
			if err := j.AppendState(rec); err != nil {
				t.Fatalf("append state %s/%s: %v", rec.ID, rec.State, err)
			}
		}
	})

	j2, replayed, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if rep := j2.LoadReport(); rep.Err != nil || rep.Dropped != 0 || rep.Orphans != 0 {
		t.Fatalf("clean journal load report: %+v", rep)
	}
	want := []struct {
		id    string
		state JobState
		errs  string
		seq   uint64
	}{
		{"j000001", StateDone, "", 42},
		{"j000002", StateRunning, "", 7},
		{"j000003", StateFailed, "synthetic", 3},
	}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(replayed), len(want))
	}
	for i, w := range want {
		got := replayed[i]
		if got.Submit.ID != w.id || got.State != w.state || got.Err != w.errs || got.Seq != w.seq {
			t.Errorf("job %d: got {%s %s %q seq=%d}, want {%s %s %q seq=%d}",
				i, got.Submit.ID, got.State, got.Err, got.Seq, w.id, w.state, w.errs, w.seq)
		}
	}
	if k := replayed[0].Submit.IdemKey; k != "key-1" {
		t.Errorf("idempotency key did not survive the round trip: %q", k)
	}
	if fp := replayed[0].Submit.Fingerprint; fp == "" || fp != testSubmit("x", "y", "key-1").Fingerprint {
		t.Errorf("fingerprint did not survive or is identity-dependent: %q", fp)
	}
}

// TestJournalTornTailSalvage: a crash mid-append leaves a torn final
// line. The loader keeps every verified record, quarantines the damaged
// original, rewrites a compacted clean log, and a third open of that
// compacted log is pristine.
func TestJournalTornTailSalvage(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path, func(j *Journal) {
		if err := j.AppendSubmit(testSubmit("j000001", "alpha", "")); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendState(StateRecord{ID: "j000001", State: StateRunning, Seq: 5}); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSubmit(testSubmit("j000002", "beta", "")); err != nil {
			t.Fatal(err)
		}
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: the last record loses its newline and half its bytes.
	torn := raw[:len(raw)-25]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("salvage open: %v", err)
	}
	rep := j2.LoadReport()
	j2.Close()
	if rep.Err == nil || rep.Dropped == 0 {
		t.Fatalf("torn tail not detected: %+v", rep)
	}
	if rep.Quarantined == "" {
		t.Fatal("damaged journal was not quarantined")
	}
	if _, err := os.Stat(rep.Quarantined); err != nil {
		t.Fatalf("quarantine corpse missing: %v", err)
	}
	if got, err := os.ReadFile(rep.Quarantined); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("quarantine corpse is not the original damaged bytes (err %v)", err)
	}
	if len(replayed) != 1 || replayed[0].Submit.ID != "j000001" ||
		replayed[0].State != StateRunning || replayed[0].Seq != 5 {
		t.Fatalf("salvage replayed %+v, want only j000001 running seq=5", replayed)
	}

	// The compacted rewrite must load clean with the same ledger.
	j3, replayed3, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen compacted: %v", err)
	}
	defer j3.Close()
	if rep3 := j3.LoadReport(); rep3.Err != nil {
		t.Fatalf("compacted journal still dirty: %+v", rep3)
	}
	if len(replayed3) != 1 || replayed3[0].Submit.ID != "j000001" {
		t.Fatalf("compacted replay %+v, want j000001 only", replayed3)
	}
}

// TestJournalTamperedRecordDropped: a record whose bytes no longer match
// its checksum is never resurrected — not as a job, not in the compacted
// rewrite — while intact neighbors survive.
func TestJournalTamperedRecordDropped(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path, func(j *Journal) {
		if err := j.AppendSubmit(testSubmit("j000001", "alpha", "")); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSubmit(testSubmit("j000002", "beta", "")); err != nil {
			t.Fatal(err)
		}
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second submit's payload ("beta" → "bet`").
	tampered := bytes.Replace(raw, []byte(`"tenant":"beta"`), []byte(`"tenant":"bet`+"`"+`"`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found in the journal bytes")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("open tampered: %v", err)
	}
	defer j2.Close()
	rep := j2.LoadReport()
	if rep.Err == nil || rep.Dropped != 1 {
		t.Fatalf("tampered record not dropped: %+v", rep)
	}
	if len(replayed) != 1 || replayed[0].Submit.ID != "j000001" {
		t.Fatalf("replay %+v, want the intact j000001 only", replayed)
	}
	for _, rj := range replayed {
		if rj.Submit.Tenant != "alpha" {
			t.Fatalf("a tampered identity was resurrected: %+v", rj)
		}
	}
}

// TestJournalOrphanAndDuplicate: a verified state record without its
// submit is counted as an orphan (never resurrected as a job), and a
// duplicate submit for an id keeps the first, drops the echo.
func TestJournalOrphanAndDuplicate(t *testing.T) {
	path := journalPath(t)
	dup := testSubmit("j000001", "alpha", "")
	writeJournal(t, path, func(j *Journal) {
		if err := j.AppendSubmit(dup); err != nil {
			t.Fatal(err)
		}
		// A state for a job whose submit never made it to this log.
		if err := j.AppendState(StateRecord{ID: "j000099", State: StateRunning}); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendSubmit(dup); err != nil {
			t.Fatal(err)
		}
	})
	j2, replayed, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	rep := j2.LoadReport()
	if rep.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", rep.Orphans)
	}
	if rep.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the duplicate submit)", rep.Dropped)
	}
	if len(replayed) != 1 || replayed[0].Submit.ID != "j000001" {
		t.Fatalf("replay %+v, want exactly one j000001", replayed)
	}
	for _, rj := range replayed {
		if rj.Submit.ID == "j000099" {
			t.Fatal("orphan state record was resurrected as a job")
		}
	}
}

// TestJournalQuarantineBounded: repeated damage accumulates at most
// recordlog.QuarantineKeep corpses next to the journal.
func TestJournalQuarantineBounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	for i := 0; i < 6; i++ {
		if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if j.LoadReport().Err == nil {
			t.Fatalf("round %d: garbage loaded clean", i)
		}
		j.Close()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpses := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "jobs.journal.corrupt-") {
			corpses++
		}
	}
	if corpses == 0 || corpses > 3 {
		t.Fatalf("%d quarantine corpses on disk, want 1..3", corpses)
	}
}

// FuzzJournalParse holds the journal loader to its salvage contract on
// arbitrary bytes: never panic, never resurrect an unverifiable record
// (every replayed job has a verified submit record, once), and the
// rewritten salvage reopens clean with the same ledger.
func FuzzJournalParse(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.journal")
	jw, _, err := OpenJournal(seedPath, nil)
	if err != nil {
		f.Fatal(err)
	}
	jw.AppendSubmit(testSubmit("j000001", "alpha", "k"))
	jw.AppendState(StateRecord{ID: "j000001", State: StateDone, Seq: 9})
	jw.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-10])                             // torn tail
	f.Add(bytes.Replace(valid, []byte("a"), []byte("b"), 3)) // bit rot
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"format":"tivapromi-journal","version":2}` + "\n"))
	f.Add([]byte(`{"format":"tivapromi-journal","version":1}` + "\n"))
	f.Add([]byte(`{"format":"something-else","version":2}` + "\n"))
	f.Add([]byte(`{"format":"tivapromi-journal","version":2}` + "\n" + `{"k":"submit","id":"j1","sum":"bad","data":{}}` + "\n"))
	f.Add([]byte("\x00\xff\xfe\n\n\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, jobs, err := OpenJournal(path, nil) // must not panic
		if err != nil {
			t.Fatalf("open of damaged journal failed instead of salvaging: %v", err)
		}
		rep := j.LoadReport()
		j.Close()
		if rep.Entries < 0 || rep.Dropped < 0 || rep.Orphans < 0 {
			t.Fatalf("negative report counters: %+v", rep)
		}
		seen := make(map[string]bool, len(jobs))
		for _, rj := range jobs {
			if rj.Submit.ID == "" {
				t.Fatalf("resurrected a job with an empty id: %+v", rj)
			}
			if seen[rj.Submit.ID] {
				t.Fatalf("duplicate job id %s in replay", rj.Submit.ID)
			}
			seen[rj.Submit.ID] = true
		}
		// The salvage rewrite must reopen clean and reproduce exactly the
		// jobs salvage kept — nothing dropped sneaks back in.
		j2, jobs2, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep2 := j2.LoadReport()
		j2.Close()
		if rep2.Err != nil {
			t.Fatalf("salvaged journal still corrupt: %v (input %q)", rep2.Err, raw)
		}
		if !reflect.DeepEqual(jobs2, jobs) {
			t.Fatalf("salvaged journal replays %+v, salvage had %+v", jobs2, jobs)
		}
	})
}

// TestJournalLoadsFormatV2Fixture: a journal written by the
// encoding/json line parser's release of format version 2
// (testdata/compat), with job IDs, tenants and errors that need JSON
// escapes or are non-ASCII, replays clean: every record held, every job
// equal to what encoding/json reads from its lines.
func TestJournalLoadsFormatV2Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "journal-v2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve-jobs.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, jobs, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")[1:]
	if rep := j.LoadReport(); rep.Err != nil || rep.Entries != len(lines) || rep.Dropped != 0 {
		t.Fatalf("fixture replays as %+v, want %d clean entries", rep, len(lines))
	}
	want := map[string]*ReplayedJob{}
	var order []string
	for _, ln := range lines {
		var rec struct {
			K, ID string
			Data  json.RawMessage
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.K == journalKindSubmit {
			var s SubmitRecord
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				t.Fatal(err)
			}
			want[rec.ID] = &ReplayedJob{Submit: s, State: StateQueued}
			order = append(order, rec.ID)
			continue
		}
		var s StateRecord
		if err := json.Unmarshal(rec.Data, &s); err != nil {
			t.Fatal(err)
		}
		w := want[rec.ID]
		w.State, w.Err, w.Epoch, w.Seq = s.State, s.Error, max(w.Epoch, s.Epoch), max(w.Seq, s.Seq)
	}
	if len(jobs) != len(order) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(order))
	}
	escaped := 0
	for i, id := range order {
		if !reflect.DeepEqual(jobs[i], *want[id]) {
			t.Fatalf("job %d replays as %+v, want %+v", i, jobs[i], *want[id])
		}
		if strings.ContainsAny(id, "\"\\<&\u2028") || !isASCII(id) {
			escaped++
		}
	}
	if escaped < 3 {
		t.Fatalf("fixture exercises %d unusual job IDs, want at least 3", escaped)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("a clean replay rewrote the journal")
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
