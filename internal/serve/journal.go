// The write-ahead job journal: the serving tier's durability spine.
// Every accepted submission is appended (and fsynced) before its 202
// goes out, every state transition is appended as it happens, and a
// restarted server replays the log to rebuild its job ledger — jobs
// that were queued, running, or even done are re-admitted and re-run,
// with their cells deduping against the content-addressed checkpoint
// cache so recovery re-renders rather than re-simulates.
//
// The journal is a record schema on internal/recordlog, the same
// verified log the checkpoint uses: submit and state records, each
// checksummed, appended and fsynced one at a time. A crash's torn tail
// is expected damage: the log salvages every verifiable record,
// quarantines the original and rewrites the salvage before the server
// appends again. A record that does not verify is never resurrected.
// This file keeps only the ledger fold: last state wins, the highest
// epoch wins, and orphaned state records are counted, not re-admitted.
package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"tivapromi/internal/iofault"
	"tivapromi/internal/obs"
	"tivapromi/internal/recordlog"
)

// Version 2 is the recordlog format; a version-1 journal is quarantined
// (drain the server before upgrading across that change).
const (
	journalFormat  = "tivapromi-journal"
	journalVersion = 2

	journalKindSubmit = "submit"
	journalKindState  = "state"
)

// SubmitRecord journals one accepted submission: everything a restarted
// server needs to re-admit the job and honor its idempotency key.
type SubmitRecord struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	IdemKey     string  `json:"idem_key,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	Request     Request `json:"request"`
}

// StateRecord journals one lifecycle transition. Epoch and Seq are the
// job's incarnation number and SSE sequence high-water mark at the
// transition: a recovered job bumps its epoch past the last journaled
// one, so a pre-crash Last-Event-ID is detected as stale instead of
// silently aliasing into the re-run's event numbering.
type StateRecord struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	Epoch uint64   `json:"epoch,omitempty"`
	Seq   uint64   `json:"seq,omitempty"`
}

// ReplayedJob is one job reconstructed from the journal: its submit
// record and the last verified state the log recorded for it.
type ReplayedJob struct {
	Submit SubmitRecord
	State  JobState // last journaled state (StateQueued if only the submit survived)
	Err    string
	Epoch  uint64 // highest journaled incarnation number
	Seq    uint64
}

// JournalLoadReport describes what OpenJournal found on disk.
type JournalLoadReport struct {
	// Entries counts the verified records replayed.
	Entries int
	// Dropped counts damaged or unverifiable lines discarded by salvage.
	Dropped int
	// Orphans counts verified state records whose submit record did not
	// survive — without a spec they cannot be re-admitted.
	Orphans int
	// Quarantined is the path the damaged original was moved to, if any.
	Quarantined string
	// Err is what was wrong with the file (nil = clean load).
	Err error
}

// Note renders the report as one operator-facing line ("" when there is
// nothing to say).
func (r JournalLoadReport) Note() string {
	if r.Err == nil {
		return ""
	}
	return fmt.Sprintf("journal salvage: kept %d record(s), dropped %d, quarantined %q (%v)",
		r.Entries, r.Dropped, r.Quarantined, r.Err)
}

// Journal is the open write-ahead log. A nil *Journal is a no-op (the
// server runs journal-less when Config.JournalPath is empty), so
// callers thread one pointer unconditionally. Each append is written
// and fsynced before returning — the fsync is the commit point the
// chaos harness kills at.
type Journal struct {
	log    *recordlog.Log
	report JournalLoadReport
}

// OpenJournal opens or creates the journal at path through the FS seam
// (nil = the real filesystem), salvaging and quarantining on damage,
// and returns the replayed jobs in submission order.
func OpenJournal(path string, fsys iofault.FS) (*Journal, []ReplayedJob, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("serve: empty journal path")
	}
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	l := ledger{byID: make(map[string]*ReplayedJob)}
	span := obs.StartSpan("journal-replay", "serve", "path", path)
	log, rep, err := recordlog.Open(path, fsys, journalFormat, journalVersion, l.apply)
	if err != nil {
		span.End("outcome", "err")
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	j := &Journal{log: log, report: JournalLoadReport{
		Entries: rep.Records - l.orphans, Dropped: rep.Dropped, Orphans: l.orphans,
		Quarantined: rep.Quarantined, Err: rep.Err,
	}}
	span.End("entries", fmt.Sprint(j.report.Entries), "dropped", fmt.Sprint(j.report.Dropped))
	if rep.Err != nil {
		if rep.Quarantined != "" {
			obs.JournalQuarantines.Inc()
		}
		if rep.Records > 0 {
			obs.JournalSalvages.Inc()
		}
		obs.Emit("journal-quarantine",
			"path", path,
			"quarantined", rep.Quarantined,
			"salvaged", fmt.Sprint(j.report.Entries),
			"dropped", fmt.Sprint(j.report.Dropped),
			"err", rep.Err.Error())
	}
	return j, l.jobs(), nil
}

// LoadReport returns what OpenJournal found on disk (the zero report
// for a nil journal or a fresh file).
func (j *Journal) LoadReport() JournalLoadReport {
	if j == nil {
		return JournalLoadReport{}
	}
	return j.report
}

// AppendSubmit journals one accepted submission. It must succeed before
// the submission's 202 goes out: an unjournaled job would silently
// vanish in a crash, which is exactly the lie this log exists to
// prevent. A nil journal accepts everything.
func (j *Journal) AppendSubmit(rec SubmitRecord) error {
	if j == nil {
		return nil
	}
	return j.append(journalKindSubmit, rec.ID, rec)
}

// AppendState journals one lifecycle transition. State records are
// best-effort relative to the submit record: losing one in a crash
// means the job replays from an earlier state and re-runs against the
// result cache — wasteful, never wrong.
func (j *Journal) AppendState(rec StateRecord) error {
	if j == nil {
		return nil
	}
	return j.append(journalKindState, rec.ID, rec)
}

// append commits one record with span + counter accounting.
func (j *Journal) append(kind, id string, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", kind, err)
	}
	span := obs.StartSpan("journal-append", "serve", "kind", kind, "job", id)
	if err := j.log.Append(recordlog.Record{Kind: kind, ID: id, Data: data}); err != nil {
		span.End("outcome", "err")
		obs.JournalAppendErrs.Inc()
		return fmt.Errorf("serve: journal: %w", err)
	}
	span.End("outcome", "ok")
	obs.JournalAppends.Inc()
	return nil
}

// Close releases the append handle. Nil-safe and idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// ledger folds verified journal records into the job ledger.
type ledger struct {
	order   []string
	byID    map[string]*ReplayedJob
	orphans int
}

// apply folds one verified record. An error refuses the record as
// damage: a payload that does not decode or names another job, or a
// duplicate submit (unverifiable intent — the first one is kept).
func (l *ledger) apply(r recordlog.Record) error {
	switch r.Kind {
	case journalKindSubmit:
		var rec SubmitRecord
		if json.Unmarshal(r.Data, &rec) != nil || rec.ID != r.ID || rec.ID == "" {
			return fmt.Errorf("submit record does not match its identity")
		}
		if l.byID[rec.ID] != nil {
			return fmt.Errorf("duplicate submit for %s", rec.ID)
		}
		l.byID[rec.ID] = &ReplayedJob{Submit: rec, State: StateQueued}
		l.order = append(l.order, rec.ID)
	case journalKindState:
		var rec StateRecord
		if json.Unmarshal(r.Data, &rec) != nil || rec.ID != r.ID {
			return fmt.Errorf("state record does not match its identity")
		}
		rj := l.byID[rec.ID]
		if rj == nil {
			// Verified but orphaned: its submit record was lost, so
			// there is no spec to re-admit. Counted, not resurrected.
			l.orphans++
			return nil
		}
		rj.State = rec.State
		rj.Err = rec.Error
		rj.Epoch = max(rj.Epoch, rec.Epoch)
		rj.Seq = max(rj.Seq, rec.Seq)
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// jobs returns the replayed jobs in submission order.
func (l *ledger) jobs() []ReplayedJob {
	out := make([]ReplayedJob, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, *l.byID[id])
	}
	return out
}
