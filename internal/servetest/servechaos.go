// servechaos.go is the crash-durability torture protocol: where Run
// (servetest.go) kills a journal-less server at a commit ordinal and
// only demands convergence of *resubmitted* work, RunServeChaos kills a
// journaled one at a seeded commit ordinal and demands the server
// itself remember — every accepted job re-admitted from the write-ahead
// journal, re-rendered byte-identically through the shared cache,
// duplicate Idempotency-Key POSTs answered with the original id and
// zero re-executions, and pre-crash SSE resume tokens refused with a
// snapshot instead of silently aliased into the new incarnation.
package servetest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/chaostest"
	"tivapromi/internal/iofault"
	"tivapromi/internal/recordlog"
	"tivapromi/internal/rng"
	"tivapromi/internal/serve"
)

// ChaosConfig tunes one crash-durability run.
type ChaosConfig struct {
	// Seed drives the kill ordinal (and nothing else: the filesystem
	// injects no write faults — the crash itself is the fault).
	Seed uint64
	// Tenants is the number of concurrent clients (≤ 0 means 4), one
	// journaled job each.
	Tenants int
	// Workers bounds the server's simulation pool (≤ 0 means 4).
	Workers int
	// Variants are the section sets tenants cycle through (empty = a
	// default mix whose first entry has real cells, so the SSE watcher
	// sees progress events).
	Variants [][]string
	// Eval is the evaluation scale (zero = chaostest.TestScaleEval()).
	Eval campaign.Eval
	// Dir is the working directory for the journal and checkpoint ("" =
	// the caller must supply one; the harness does not clean up).
	Dir string
	// Log, when non-nil, receives the harness's progress narration.
	Log io.Writer
}

// ChaosReport summarizes one crash-durability run.
type ChaosReport struct {
	// Golden is the number of distinct golden reports computed.
	Golden int
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
	// process); Tombstones counts terminal failed/canceled replays.
	Recovered  int
	Tombstones int
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
func (r ChaosReport) Check() error {
	switch {
	case r.Submitted == 0:
		return fmt.Errorf("servetest: chaos life accepted no submissions")
	case !r.Killed:
		return fmt.Errorf("servetest: the kill at commit %d never fired", r.KillOrdinal)
	case r.Recovered != r.Submitted:
		return fmt.Errorf("servetest: %d of %d accepted jobs re-admitted from the journal", r.Recovered, r.Submitted)
	case r.Compared != r.Submitted || !r.Identical:
		return fmt.Errorf("servetest: %d/%d recovered reports compared, identical=%v", r.Compared, r.Submitted, r.Identical)
	case r.IdempotentReplays != r.Submitted:
		return fmt.Errorf("servetest: %d of %d duplicate POSTs replayed the original job", r.IdempotentReplays, r.Submitted)
	case r.ReExecutions != 0:
		return fmt.Errorf("servetest: idempotent sweep admitted %d new executions, want 0", r.ReExecutions)
	case r.PreKillEventID != "" && !r.SnapshotFallback:
		return fmt.Errorf("servetest: pre-kill SSE id %q resumed without a snapshot — cross-incarnation aliasing", r.PreKillEventID)
	case !r.ResumeChecked:
		return fmt.Errorf("servetest: the current-epoch SSE resume path was never exercised")
	case r.Corpses > recordlog.QuarantineKeep:
		return fmt.Errorf("servetest: %d quarantine corpses beside the journal, bound is %d", r.Corpses, recordlog.QuarantineKeep)
	case r.LeakedGoroutines != 0:
		return fmt.Errorf("servetest: %d serve goroutine(s) leaked", r.LeakedGoroutines)
	}
	return nil
}

// chaosVariants is DefaultVariants reordered so tenant 0 — the SSE
// watcher's tenant — always runs a campaign with real cells (table2
// alone is an empty spec and would emit no progress events to resume).
func chaosVariants() [][]string {
	return [][]string{
		{"flooding"},
		{"table2", "flooding"},
		{"table3"},
		{"table2"},
	}
}

// submission is one life-A accepted job, remembered across the kill.
type submission struct {
	tenant string
	id     string
	key    string // Idempotency-Key
	body   []byte // exact submitted bytes (fingerprint-identical re-POST)
	names  []string
}

// submitIdem POSTs with an Idempotency-Key and returns the decoded
// status, HTTP code, and whether the server marked the answer a replay.
func submitIdem(hc *http.Client, base, tenant, key string, body []byte) (serve.Status, int, bool, error) {
	req, err := http.NewRequest("POST", base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, 0, false, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Idempotency-Key", key)
	resp, err := hc.Do(req)
	if err != nil {
		return serve.Status{}, 0, false, err
	}
	defer resp.Body.Close()
	replay := resp.Header.Get("Idempotent-Replay") == "true"
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, replay, err
}

// sseFirstFrame opens a job's event stream (optionally resuming from
// lastEventID) and returns the event name of the first frame.
func sseFirstFrame(hc *http.Client, base, tenant, id, lastEventID string) (string, error) {
	req, err := http.NewRequest("GET", base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events stream: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		if strings.HasPrefix(line, "event: ") {
			return strings.TrimSpace(line[len("event: "):]), nil
		}
	}
}

// RunServeChaos executes the crash-durability protocol:
//
//  1. golden: render each variant serially and undisturbed;
//  2. life A: a journaled server on a power-off-capable filesystem, one
//     keyed job per tenant, an SSE watcher recording resume tokens —
//     hard-killed at a seeded commit ordinal (the power-off
//     refuses every later write, exactly like yanked power);
//  3. the corpse is desecrated: a torn half-record is appended to the
//     journal, so the restart must salvage, not merely reopen;
//  4. life B: a plain-filesystem server on the same journal and
//     checkpoint paths. Every accepted job must be re-admitted and
//     re-rendered byte-identically; duplicate keyed POSTs must replay
//     the original id with zero new executions; the pre-kill SSE token
//     must draw a snapshot (cross-incarnation ids never alias) while a
//     current-epoch token resumes without one; quarantine stays bounded,
//     the drain terminates, and no serve goroutine survives.
func RunServeChaos(ctx context.Context, cfg ChaosConfig) (ChaosReport, error) {
	var rep ChaosReport
	if ctx == nil {
		ctx = context.Background()
	}
	tenants := cfg.Tenants
	if tenants <= 0 {
		tenants = 4
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	variants := cfg.Variants
	if len(variants) == 0 {
		variants = chaosVariants()
	}
	ev := cfg.Eval
	if ev.SeedsPerPoint == 0 {
		ev = chaostest.TestScaleEval()
	}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("servetest: ChaosConfig.Dir is required")
	}
	jpath := filepath.Join(cfg.Dir, "serve-jobs.journal")
	ckpt := filepath.Join(cfg.Dir, "serve-chaos-cache.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0xc4a5d0)

	// Phase 1: golden bytes per variant.
	golden, err := goldens(ctx, variants[:min(len(variants), tenants)], ev)
	if err != nil {
		return rep, err
	}
	rep.Golden = len(golden)
	logf(cfg.Log, "servetest: serve-chaos: %d golden variant(s)", rep.Golden)

	// Phase 2, life A: journaled server on a power-off filesystem. No
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
	killAt := 2 + rng.Intn(master, tenants+1)
	rep.KillOrdinal = killAt
	killCh := make(chan struct{})
	var killOnce sync.Once
	fsys.OnCommit = func(_ string, n int) {
		if n >= killAt {
			// The hook runs without the chaos lock held, so the power-off
			// is safe to pull from here — this commit is the last write
			// that survives.
			killOnce.Do(func() { fsys.PowerOff(); close(killCh) })
		}
	}
	srv, err := serve.New(serve.Config{
		Workers:        workers,
		BaseEval:       ev,
		JournalPath:    jpath,
		CheckpointPath: ckpt,
		FS:             fsys,
		DrainTimeout:   time.Second,
		Log:            cfg.Log,
	})
	if err != nil {
		return rep, fmt.Errorf("servetest: life A server: %w", err)
	}
	hs := httptest.NewServer(srv.Handler())

	var mu sync.Mutex
	var subs []submission
	var preKillID string
	var wg sync.WaitGroup
	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	for i := 0; i < tenants; i++ {
		names := variants[i%len(variants)]
		tenant := fmt.Sprintf("tenant-%d", i)
		key := fmt.Sprintf("ik-%d", i)
		body, _ := json.Marshal(serve.Request{Sections: names})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code, _, err := submitIdem(hs.Client(), hs.URL, tenant, key, body)
			if err != nil || code != http.StatusAccepted {
				return // killed mid-admission: the 202 never happened, so nothing was promised
			}
			mu.Lock()
			subs = append(subs, submission{tenant: tenant, id: st.ID, key: key, body: body, names: names})
			mu.Unlock()
			if i == 0 {
				// The watcher: stream tenant-0's events and remember the
				// last id seen — the resume token a real client would
				// replay after the crash.
				req, _ := http.NewRequest("GET", hs.URL+"/v1/campaigns/"+st.ID+"/events", nil)
				req.Header.Set("X-Tenant", tenant)
				if resp, err := hs.Client().Do(req.WithContext(clientCtx)); err == nil {
					br := bufio.NewReader(resp.Body)
					for {
						line, err := br.ReadString('\n')
						if err != nil {
							break // the kill, or job completion closing the stream
						}
						if strings.HasPrefix(line, "id: ") {
							mu.Lock()
							preKillID = strings.TrimSpace(line[len("id: "):])
							mu.Unlock()
						}
					}
					resp.Body.Close()
				}
				return
			}
			c := &client{base: hs.URL, tenant: tenant, hc: hs.Client()}
			c.awaitTerminal(clientCtx, st.ID)
		}(i)
	}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	select {
	case <-killCh:
		rep.Killed = true
	case <-clientsDone:
	case <-ctx.Done():
		stopClients()
		hs.Close()
		srv.Close()
		return rep, ctx.Err()
	}
	// The crash: no drain. Close only reaps goroutines — the
	// power-off already made every further write fail, so the on-disk
	// journal is exactly what a SIGKILL would have left.
	stopClients()
	srv.Close()
	hs.Close()
	wg.Wait()
	rep.Submitted = len(subs)
	if rep.Submitted == 0 {
		return rep, fmt.Errorf("servetest: the kill beat every admission; nothing to recover (killAt=%d)", killAt)
	}
	rep.PreKillEventID = preKillID
	rep.Faults = fsys.Stats()
	logf(cfg.Log, "servetest: life A: %d accepted, killAt=%d killed=%v, pre-kill SSE id %q",
		rep.Submitted, killAt, rep.Killed, preKillID)

	// Phase 3: desecrate the corpse — a torn half-record with no newline,
	// as if the process died mid-append with the page cache half-flushed.
	if f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		if _, err := f.WriteString(`{"kind":"state","id":"j9`); err == nil {
			rep.Tampered = true
		}
		f.Close()
	}

	// Phase 4, life B: plain filesystem, same journal, same checkpoint.
	srv2, err := serve.New(serve.Config{
		Workers:         workers,
		BaseEval:        ev,
		JournalPath:     jpath,
		CheckpointPath:  ckpt,
		RecoveryTimeout: 2 * time.Minute,
		DrainTimeout:    30 * time.Second,
		Log:             cfg.Log,
	})
	if err != nil {
		return rep, fmt.Errorf("servetest: life B server: %w", err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer func() {
		hs2.Close()
		srv2.Close()
	}()
	if note := srv2.JournalReport().Note(); note != "" {
		logf(cfg.Log, "servetest: life B journal load: %s", note)
	}

	rep.Identical = true
	for _, sub := range subs {
		c := &client{base: hs2.URL, tenant: sub.tenant, hc: hs2.Client()}
		st, err := c.status(sub.id)
		if err != nil {
			return rep, fmt.Errorf("servetest: life B status %s: %w", sub.id, err)
		}
		if st.ID != sub.id {
			return rep, fmt.Errorf("servetest: job %s (tenant %s) did not survive the restart", sub.id, sub.tenant)
		}
		if st.Recovered {
			rep.Recovered++
		}
		final, err := c.awaitTerminal(ctx, sub.id)
		if err != nil {
			return rep, fmt.Errorf("servetest: life B await %s: %w", sub.id, err)
		}
		if final.State != serve.StateDone {
			if final.State.Terminal() && !final.Recovered {
				rep.Tombstones++
				continue
			}
			return rep, fmt.Errorf("servetest: recovered job %s: %s (%s)", sub.id, final.State, final.Error)
		}
		text, err := c.report(sub.id)
		if err != nil {
			return rep, fmt.Errorf("servetest: life B report %s: %w", sub.id, err)
		}
		rep.Compared++
		if !bytes.Equal(text, golden[strings.Join(sub.names, "+")]) {
			rep.Identical = false
			logf(cfg.Log, "servetest: job %s report differs from golden (%d vs %d bytes)",
				sub.id, len(text), len(golden[strings.Join(sub.names, "+")]))
		}
	}
	logf(cfg.Log, "servetest: life B: %d recovered, %d compared, identical=%v",
		rep.Recovered, rep.Compared, rep.Identical)

	// Idempotent sweep: every life-A key re-POSTed verbatim must be
	// answered with the original job id, marked as a replay, and admit
	// nothing new.
	admittedBefore, _, _, _, _, _ := srv2.CountersSnapshot()
	for _, sub := range subs {
		st, code, replay, err := submitIdem(hs2.Client(), hs2.URL, sub.tenant, sub.key, sub.body)
		if err != nil || code != http.StatusAccepted {
			return rep, fmt.Errorf("servetest: idempotent re-POST %s: HTTP %d err %v", sub.key, code, err)
		}
		if replay && st.ID == sub.id {
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
		if subs[i].tenant == "tenant-0" {
			watched = &subs[i]
			break
		}
	}
	if preKillID != "" && watched == nil {
		return rep, fmt.Errorf("servetest: pre-kill SSE id %q recorded but tenant-0 never admitted", preKillID)
	}
	if watched != nil {
		token := preKillID
		if token == "" {
			token = "1"
		}
		rep.PreKillEventID = token
		first, err := sseFirstFrame(hs2.Client(), hs2.URL, watched.tenant, watched.id, token)
		if err != nil {
			return rep, fmt.Errorf("servetest: pre-kill SSE replay: %w", err)
		}
		rep.SnapshotFallback = first == "snapshot"
	}
	// A current-epoch caught-up token resumes without a snapshot: the
	// stream goes straight to the terminal frame. Any recovered job with
	// events will do; if every survivor ran an empty campaign, a fresh
	// life-B job supplies the stream instead.
	resumeTarget := func() (tenant, id string, epoch, seq uint64, err error) {
		for _, sub := range subs {
			st, err := (&client{base: hs2.URL, tenant: sub.tenant, hc: hs2.Client()}).status(sub.id)
			if err == nil && st.State == serve.StateDone && st.Seq > 0 {
				return sub.tenant, sub.id, st.Epoch, st.Seq, nil
			}
		}
		body, _ := json.Marshal(serve.Request{Sections: []string{"flooding"}})
		st, code, _, err := submitIdem(hs2.Client(), hs2.URL, "tenant-0", "ik-resume-probe", body)
		if err != nil || code != http.StatusAccepted {
			return "", "", 0, 0, fmt.Errorf("servetest: resume probe submit: HTTP %d err %v", code, err)
		}
		c := &client{base: hs2.URL, tenant: "tenant-0", hc: hs2.Client()}
		final, err := c.awaitTerminal(ctx, st.ID)
		if err != nil || final.State != serve.StateDone || final.Seq == 0 {
			return "", "", 0, 0, fmt.Errorf("servetest: resume probe: %s seq=%d err %v", final.State, final.Seq, err)
		}
		return "tenant-0", st.ID, final.Epoch, final.Seq, nil
	}
	tenant, id, epoch, seq, err := resumeTarget()
	if err != nil {
		return rep, err
	}
	token := fmt.Sprintf("%d", seq)
	if epoch > 0 {
		token = fmt.Sprintf("%d.%d", epoch, seq)
	}
	first, err := sseFirstFrame(hs2.Client(), hs2.URL, tenant, id, token)
	if err != nil {
		return rep, fmt.Errorf("servetest: current-epoch SSE resume: %w", err)
	}
	if first == "snapshot" {
		return rep, fmt.Errorf("servetest: caught-up token %s drew a snapshot; resume is broken", token)
	}
	rep.ResumeChecked = true

	// Drain, then the post-mortem: goroutines and quarantine bound.
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv2.Drain(drainCtx); err != nil {
		return rep, fmt.Errorf("servetest: life B drain: %w", err)
	}
	rep.LeakedGoroutines = serveGoroutines()
	for wait := 0; rep.LeakedGoroutines > 0 && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		rep.LeakedGoroutines = serveGoroutines()
	}
	matches, _ := filepath.Glob(jpath + ".corrupt-*")
	rep.Corpses = len(matches)
	logf(cfg.Log, "servetest: post-mortem: %d idempotent replays, re-exec=%d, snapshotFallback=%v, resumeChecked=%v, %d corpse(s), %d leaked",
		rep.IdempotentReplays, rep.ReExecutions, rep.SnapshotFallback, rep.ResumeChecked, rep.Corpses, rep.LeakedGoroutines)
	return rep, nil
}
