package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/iofault"
	"tivapromi/internal/recordlog"
	"tivapromi/internal/rng"
	"tivapromi/internal/serve"
)

// ServeChaosReport summarizes one crash-durability run.
type ServeChaosReport struct {
	// Submitted counts life-A submissions the server accepted (and
	// therefore journaled — a 202 is the durability promise).
	Submitted int
	// Killed reports whether the seeded power-off actually fired;
	// KillOrdinal is the commit ordinal it was armed at.
	Killed      bool
	KillOrdinal int
	// Tampered reports that a torn tail was appended to the journal
	// between lives (the restart must salvage, not refuse).
	Tampered bool
	// Recovered counts life-B jobs re-admitted from the journal (every
	// accepted job, in a fault-free life A, since outputs die with the
	// process).
	Recovered int
	// IdempotentReplays counts duplicate POSTs answered with the original
	// job id; ReExecutions is the admitted-counter movement during that
	// sweep (must be 0 — a replay is an answer, not a job).
	IdempotentReplays int
	ReExecutions      int64
	// PreKillEventID is the last SSE id the life-A watcher saw ("" if the
	// kill beat the first progress event). SnapshotFallback reports that
	// replaying it at the recovered incarnation drew a snapshot frame,
	// never a silent continuation; ResumeChecked that a current-epoch
	// caught-up reconnect skipped the snapshot.
	PreKillEventID   string
	SnapshotFallback bool
	ResumeChecked    bool
	// Compared counts report byte-comparisons; Identical is true only if
	// every recovered job's report matched its golden bytes.
	Compared  int
	Identical bool
	// Corpses is the number of quarantine files beside the journal after
	// the run (bounded by recordlog.QuarantineKeep).
	Corpses int
	// LeakedGoroutines counts serve-owned goroutines alive after the
	// final drain (must be 0).
	LeakedGoroutines int
	// Faults aggregates the chaos filesystem's injected faults (the
	// power-off's refused writes land here).
	Faults iofault.ChaosStats
}

// Check asserts the crash-durability contract on a finished report.
func (r ServeChaosReport) Check() error {
	switch {
	case r.Submitted == 0:
		return fmt.Errorf("chaostest: chaos life accepted no submissions")
	case !r.Killed:
		return fmt.Errorf("chaostest: the kill at commit %d never fired", r.KillOrdinal)
	case !r.Tampered:
		return fmt.Errorf("chaostest: the torn-tail tamper never landed; salvage went unexercised")
	case r.Recovered != r.Submitted:
		return fmt.Errorf("chaostest: %d of %d accepted jobs re-admitted from the journal", r.Recovered, r.Submitted)
	case r.Compared != r.Submitted || !r.Identical:
		return fmt.Errorf("chaostest: %d/%d recovered reports compared, identical=%v", r.Compared, r.Submitted, r.Identical)
	case r.IdempotentReplays != r.Submitted:
		return fmt.Errorf("chaostest: %d of %d duplicate POSTs replayed the original job", r.IdempotentReplays, r.Submitted)
	case r.ReExecutions != 0:
		return fmt.Errorf("chaostest: idempotent sweep admitted %d new executions, want 0", r.ReExecutions)
	case r.PreKillEventID != "" && !r.SnapshotFallback:
		return fmt.Errorf("chaostest: pre-kill SSE id %q resumed without a snapshot — cross-incarnation aliasing", r.PreKillEventID)
	case !r.ResumeChecked:
		return fmt.Errorf("chaostest: the current-epoch SSE resume path was never exercised")
	case r.Corpses > recordlog.QuarantineKeep:
		return fmt.Errorf("chaostest: %d quarantine corpses beside the journal, bound is %d", r.Corpses, recordlog.QuarantineKeep)
	case r.LeakedGoroutines != 0:
		return fmt.Errorf("chaostest: %d serve goroutine(s) leaked", r.LeakedGoroutines)
	}
	return nil
}

// submission is one life-A accepted job, remembered across the kill.
type submission struct {
	c       *client // life A's; life B rebinds the tenant to its server
	id      string
	key     string // Idempotency-Key
	body    []byte // exact submitted bytes (fingerprint-identical re-POST)
	variant int
}

// RunServeChaos executes the crash-durability protocol:
//
//  1. golden: render each variant serially and undisturbed;
//  2. life A: a journaled server on a power-off-capable filesystem, one
//     keyed job per tenant, an SSE watcher recording resume tokens —
//     powered off at a seeded commit ordinal (every later write is
//     refused, exactly like yanked power);
//  3. the corpse is desecrated: a torn half-record is appended to the
//     journal, so the restart must salvage, not merely reopen;
//  4. life B: a plain-filesystem server on the same journal and
//     checkpoint paths. Every accepted job must be re-admitted and
//     re-rendered byte-identically; duplicate keyed POSTs must replay
//     the original id with zero new executions; the pre-kill SSE token
//     must draw a snapshot (cross-incarnation ids never alias) while a
//     current-epoch token resumes without one; quarantine stays bounded,
//     the drain terminates, and no serve goroutine survives.
//
// The contract is ServeChaosReport.Check.
func RunServeChaos(ctx context.Context, cfg Config) (ServeChaosReport, error) {
	var rep ServeChaosReport
	dir, cleanup, err := workDir(cfg.Dir)
	if err != nil {
		return rep, err
	}
	defer cleanup()
	jpath := filepath.Join(dir, "serve-jobs.journal")
	ckpt := filepath.Join(dir, "serve-chaos-cache.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0xc4a5d0)

	golden, err := goldens(ctx)
	if err != nil {
		return rep, err
	}
	logf(cfg.Log, "chaostest: serve-chaos: %d golden variant(s)", len(golden))

	// Life A: journaled server on a power-off filesystem. No
	// probabilistic faults — the kill is the fault, and its placement
	// (a commit ordinal) is the only randomness.
	fsys := iofault.NewChaos(nil, iofault.ChaosConfig{Seed: master.Uint64()})
	// Journal and checkpoint share the commit ordinal: the journal
	// commits once per accepted submit (the first also carries the
	// header) and once per state transition, the checkpoint once per
	// new result. No result exists before the first admission, so
	// commit 1 is always a submit — its sync completes before the hook
	// fires, so at least one 202 is durable — and an ordinal inside
	// [2, tenants+2] lands the kill while jobs are in flight, where
	// recovery has real work.
	rep.KillOrdinal = 2 + rng.Intn(master, tenants+1)
	kill := arm(fsys, rep.KillOrdinal, false, true)
	srv, hs, err := cfg.start(serve.Config{
		JournalPath:    jpath,
		CheckpointPath: ckpt,
		FS:             fsys,
		DrainTimeout:   time.Second,
	})
	if err != nil {
		return rep, fmt.Errorf("chaostest: life A server: %w", err)
	}

	var mu sync.Mutex
	var subs []submission
	bodies := make([]func(context.Context), tenants)
	for i := range bodies {
		c := &client{base: hs.URL, tenant: fmt.Sprintf("tenant-%d", i), hc: hs.Client()}
		sub := submission{c: c, key: fmt.Sprintf("ik-%d", i), variant: i % len(variants)}
		sub.body, _ = json.Marshal(serve.Request{Sections: variants[sub.variant]})
		bodies[i] = func(lctx context.Context) {
			// Submit under ctx, not the life's: a 202 sent before the
			// kill must still reach the client.
			a, err := c.submit(ctx, sub.body, sub.key)
			if err != nil || a.code != http.StatusAccepted {
				return // killed mid-admission: the 202 never happened, so nothing was promised
			}
			sub.id = a.ID
			mu.Lock()
			subs = append(subs, sub)
			mu.Unlock()
			if i > 0 {
				c.awaitTerminal(lctx, a.ID)
				return
			}
			// The watcher: stream tenant-0's events and remember the last
			// id seen — the resume token a real client would replay after
			// the crash. The stream ends at the kill or at job completion.
			c.events(lctx, a.ID, "", func(l string) bool {
				if id, ok := strings.CutPrefix(l, "id: "); ok {
					mu.Lock()
					rep.PreKillEventID = strings.TrimSpace(id)
					mu.Unlock()
				}
				return true
			})
		}
	}
	// The crash: no drain. Close only reaps goroutines — the power-off
	// already made every further write fail, so the on-disk journal is
	// exactly what a SIGKILL would have left.
	rep.Killed, err = life(ctx, kill, func() { srv.Close(); hs.Close() }, bodies...)
	if err != nil {
		return rep, err
	}
	rep.Submitted = len(subs)
	if rep.Submitted == 0 {
		return rep, fmt.Errorf("chaostest: the kill beat every admission; nothing to recover (killAt=%d)", rep.KillOrdinal)
	}
	rep.Faults = fsys.Stats()
	logf(cfg.Log, "chaostest: serve-chaos: life A: %d accepted, killAt=%d killed=%v, pre-kill SSE id %q",
		rep.Submitted, rep.KillOrdinal, rep.Killed, rep.PreKillEventID)

	// Desecrate the corpse — a torn half-record with no newline, as if
	// the process died mid-append with the page cache half-flushed.
	if f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		if _, err := f.WriteString(`{"kind":"state","id":"j9`); err == nil {
			rep.Tampered = true
		}
		f.Close()
	}

	// Life B: plain filesystem, same journal, same checkpoint.
	srv2, hs2, err := cfg.start(serve.Config{
		JournalPath:     jpath,
		CheckpointPath:  ckpt,
		RecoveryTimeout: 2 * time.Minute,
		DrainTimeout:    30 * time.Second,
	})
	if err != nil {
		return rep, fmt.Errorf("chaostest: life B server: %w", err)
	}
	defer func() {
		hs2.Close()
		srv2.Close()
	}()
	if note := srv2.JournalReport().Note(); note != "" {
		logf(cfg.Log, "chaostest: serve-chaos: life B journal load: %s", note)
	}
	for i := range subs {
		subs[i].c = &client{base: hs2.URL, tenant: subs[i].c.tenant, hc: hs2.Client()}
	}

	rep.Identical = true
	for _, sub := range subs {
		st, err := sub.c.status(ctx, sub.id)
		if err != nil {
			return rep, fmt.Errorf("chaostest: life B status %s: %w", sub.id, err)
		}
		if st.ID != sub.id {
			return rep, fmt.Errorf("chaostest: job %s (tenant %s) did not survive the restart", sub.id, sub.c.tenant)
		}
		if st.Recovered {
			rep.Recovered++
		}
		final, mismatch, err := sub.c.awaitAndCompare(ctx, sub.id, golden[sub.variant])
		if err != nil {
			return rep, fmt.Errorf("chaostest: life B job %s: %w", sub.id, err)
		}
		if final.State != serve.StateDone {
			return rep, fmt.Errorf("chaostest: job %s after the restart: %s (%s)", sub.id, final.State, final.Error)
		}
		rep.Compared++
		if mismatch != "" {
			rep.Identical = false
			logf(cfg.Log, "chaostest: serve-chaos: job %s report differs from golden: %s", sub.id, mismatch)
		}
	}
	logf(cfg.Log, "chaostest: serve-chaos: life B: %d recovered, %d compared, identical=%v",
		rep.Recovered, rep.Compared, rep.Identical)

	// Idempotent sweep: every life-A key re-POSTed verbatim must be
	// answered with the original job id, marked as a replay, and admit
	// nothing new.
	admittedBefore, _, _, _, _, _ := srv2.CountersSnapshot()
	for _, sub := range subs {
		a, err := sub.c.submit(ctx, sub.body, sub.key)
		if err != nil || a.code != http.StatusAccepted {
			return rep, fmt.Errorf("chaostest: idempotent re-POST %s: HTTP %d err %v", sub.key, a.code, err)
		}
		if a.replay && a.ID == sub.id {
			rep.IdempotentReplays++
		}
	}
	admittedAfter, _, _, _, _, _ := srv2.CountersSnapshot()
	rep.ReExecutions = admittedAfter - admittedBefore

	// SSE resume discipline. The pre-kill token carries the dead
	// incarnation's epoch: replaying it against tenant-0's recovered job
	// must draw a snapshot, because a seq-only continuation would alias
	// two different event histories. When the kill beat the watcher's
	// first frame, a bare epoch-0 seq stands in — that is exactly the
	// token a pre-crash client would hold.
	var watched *submission
	for i := range subs {
		if subs[i].c.tenant == "tenant-0" {
			watched = &subs[i]
			break
		}
	}
	if rep.PreKillEventID != "" && watched == nil {
		return rep, fmt.Errorf("chaostest: pre-kill SSE id %q recorded but tenant-0 never admitted", rep.PreKillEventID)
	}
	if watched != nil {
		if rep.PreKillEventID == "" {
			rep.PreKillEventID = "1"
		}
		first, err := watched.c.sseFirstFrame(ctx, watched.id, rep.PreKillEventID)
		if err != nil {
			return rep, fmt.Errorf("chaostest: pre-kill SSE replay: %w", err)
		}
		rep.SnapshotFallback = first == "snapshot"
	}
	// A current-epoch caught-up token resumes without a snapshot: the
	// stream goes straight to the terminal frame. Any recovered job with
	// events will do; if every survivor ran an empty campaign, a fresh
	// life-B job supplies the stream instead.
	c, target, err := resumeTarget(ctx, subs, &client{base: hs2.URL, tenant: "tenant-0", hc: hs2.Client()})
	if err != nil {
		return rep, err
	}
	token := fmt.Sprintf("%d", target.Seq)
	if target.Epoch > 0 {
		token = fmt.Sprintf("%d.%d", target.Epoch, target.Seq)
	}
	first, err := c.sseFirstFrame(ctx, target.ID, token)
	if err != nil {
		return rep, fmt.Errorf("chaostest: current-epoch SSE resume: %w", err)
	}
	if first == "snapshot" {
		return rep, fmt.Errorf("chaostest: caught-up token %s drew a snapshot; resume is broken", token)
	}
	rep.ResumeChecked = true

	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv2.Drain(drainCtx); err != nil {
		return rep, fmt.Errorf("chaostest: life B drain: %w", err)
	}
	rep.LeakedGoroutines, rep.Corpses, _ = postMortem(jpath)
	logf(cfg.Log, "chaostest: serve-chaos: post-mortem: %d idempotent replays, re-exec=%d, snapshotFallback=%v, resumeChecked=%v, %d corpse(s), %d leaked",
		rep.IdempotentReplays, rep.ReExecutions, rep.SnapshotFallback, rep.ResumeChecked, rep.Corpses, rep.LeakedGoroutines)
	return rep, nil
}

// resumeTarget finds a done job with SSE events to resume, and its
// client: the first survivor that has one, else a fresh flooding job
// that probe submits (every survivor may have run an empty campaign).
func resumeTarget(ctx context.Context, subs []submission, probe *client) (*client, serve.Status, error) {
	for _, sub := range subs {
		st, err := sub.c.status(ctx, sub.id)
		if err == nil && st.State == serve.StateDone && st.Seq > 0 {
			return sub.c, st, nil
		}
	}
	body, _ := json.Marshal(serve.Request{Sections: []string{"flooding"}})
	a, err := probe.submit(ctx, body, "ik-resume-probe")
	if err != nil || a.code != http.StatusAccepted {
		return nil, serve.Status{}, fmt.Errorf("chaostest: resume probe submit: HTTP %d err %v", a.code, err)
	}
	final, err := probe.awaitTerminal(ctx, a.ID)
	if err != nil || final.State != serve.StateDone || final.Seq == 0 {
		return nil, serve.Status{}, fmt.Errorf("chaostest: resume probe: %s seq=%d err %v", final.State, final.Seq, err)
	}
	return probe, final, nil
}
