package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tivapromi/internal/iofault"
	"tivapromi/internal/rng"
	"tivapromi/internal/serve"
)

// queueDepth is the serve protocol's per-tenant admission bound; the
// overflow probe submits past it and expects 429s.
const queueDepth = 2

// ServeReport summarizes one serving torture run.
type ServeReport struct {
	// SubmittedChaos / SubmittedClean count accepted submissions per life.
	SubmittedChaos, SubmittedClean int
	// Killed reports whether the mid-flight kill actually fired (a chaos
	// life that finishes before its kill ordinal, or before any fault,
	// survives instead).
	Killed bool
	// Faults aggregates every fault the chaos filesystem injected.
	Faults iofault.ChaosStats
	// Rejected429 counts overflow submissions shed with 429.
	Rejected429 int
	// RetryAfterSeen reports whether every observed 429 carried a
	// Retry-After header.
	RetryAfterSeen bool
	// DedupHits is the clean server's shared-cache hit count attributed
	// to tenant jobs.
	DedupHits int64
	// Compared counts report byte-comparisons performed; Identical is
	// true only if every one matched its golden bytes.
	Compared  int
	Identical bool
	// LeakedGoroutines counts serve-owned goroutines still alive after
	// the final drain (must be 0).
	LeakedGoroutines int
	// HeapAllocBytes is the post-GC heap after the run (the bounded-
	// memory assertion's input).
	HeapAllocBytes uint64
}

// Check asserts the serving torture contract on a finished report.
func (r ServeReport) Check() error {
	switch {
	case !r.Identical || r.Compared == 0:
		return fmt.Errorf("chaostest: served reports not byte-identical to serial golden runs (%d compared)", r.Compared)
	case r.SubmittedClean != 2*tenants:
		return fmt.Errorf("chaostest: clean-life submissions = %d, want %d (%d tenants x 2 rounds)", r.SubmittedClean, 2*tenants, tenants)
	case r.DedupHits == 0:
		return fmt.Errorf("chaostest: overlapping campaigns produced zero shared-cache dedup hits")
	case r.Rejected429 == 0:
		return fmt.Errorf("chaostest: overflow burst past the queue depth drew no 429")
	case !r.RetryAfterSeen:
		return fmt.Errorf("chaostest: a 429 rejection arrived without a Retry-After header")
	case r.LeakedGoroutines != 0:
		return fmt.Errorf("chaostest: %d serve goroutine(s) survived the drain", r.LeakedGoroutines)
	case r.HeapAllocBytes > heapBudget:
		return fmt.Errorf("chaostest: post-run heap %d bytes exceeds the %d budget", r.HeapAllocBytes, heapBudget)
	case !r.Killed:
		// A chaos life that finishes peacefully leaves the restart path
		// untested.
		return fmt.Errorf("chaostest: kill ordinal never fired; pick a seed whose kill lands mid-campaign")
	case r.Faults.Total() == 0:
		return fmt.Errorf("chaostest: chaos life injected no faults")
	}
	return nil
}

// RunServe executes the serving torture protocol:
//
//  1. golden: render each variant serially and undisturbed;
//  2. life A: start a server whose shared cache lives on the chaos
//     filesystem, drive it with concurrent tenants, and hard-kill it at
//     the first seeded checkpoint-commit ordinal that follows an
//     injected fault;
//  3. life B: start a fresh server on a clean filesystem over the same
//     checkpoint path (salvage happens at load), have every tenant
//     resubmit twice, and require every finished report byte-identical
//     to its golden — plus shared-cache dedup hits, since life A's
//     surviving cells and the repeated grids overlap;
//  4. overflow: meanwhile one flood tenant bursts past its queue depth
//     and must be shed with 429 + Retry-After, never an error or a hang;
//  5. drain: gracefully drain the clean server, then count leaked serve
//     goroutines and the heap.
//
// The contract is ServeReport.Check.
func RunServe(ctx context.Context, cfg Config) (ServeReport, error) {
	var rep ServeReport
	dir, cleanup, err := workDir(cfg.Dir)
	if err != nil {
		return rep, err
	}
	defer cleanup()
	ckpt := filepath.Join(dir, "serve-cache.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0x5e47e57)

	golden, err := goldens(ctx)
	if err != nil {
		return rep, err
	}
	logf(cfg.Log, "chaostest: serve: %d golden variant(s) computed", len(golden))

	// Life A: nothing about the jobs' outcomes is asserted — under
	// injected faults a job may fail or be skipped — only that the
	// server survives to be killed with its checkpoint writes going
	// through the chaos FS.
	fsys := iofault.NewChaos(nil, ChaosOdds(master.Uint64()))
	killAt := 1 + rng.Intn(master, 12)
	kill := arm(fsys, killAt, true, false)
	srv, hs, err := cfg.start(serve.Config{
		QueueDepth:     queueDepth,
		RetryBudget:    64, // generous: write faults surface as retryable cell errors
		CheckpointPath: ckpt,
		FS:             fsys,
		DrainTimeout:   time.Second,
	})
	if err != nil {
		return rep, fmt.Errorf("chaostest: chaos server: %w", err)
	}
	var mu sync.Mutex
	bodies := make([]func(context.Context), tenants)
	for i := range bodies {
		c := &client{base: hs.URL, tenant: fmt.Sprintf("tenant-%d", i), hc: hs.Client()}
		raw, _ := json.Marshal(serve.Request{Sections: variants[i%len(variants)]})
		bodies[i] = func(lctx context.Context) {
			// Submit under ctx, not the life's: a 202 sent before the
			// kill must still reach the client.
			a, err := c.submit(ctx, raw, "")
			if err != nil || a.code != http.StatusAccepted {
				return // server already dead or shedding; the life only needs traffic
			}
			mu.Lock()
			rep.SubmittedChaos++
			mu.Unlock()
			c.awaitTerminal(lctx, a.ID)
		}
	}
	// The kill: no drain — the server dies where it stands, exactly like
	// a SIGKILL'd process. Whatever reached the checkpoint through the
	// chaos FS is what the restart inherits.
	rep.Killed, err = life(ctx, kill, func() { srv.Close(); hs.Close() }, bodies...)
	if err != nil {
		return rep, err
	}
	rep.Faults = fsys.Stats()
	logf(cfg.Log, "chaostest: serve: life A: %d submitted, killAt=%d killed=%v, %d fault(s), %d commit(s)",
		rep.SubmittedChaos, killAt, rep.Killed, rep.Faults.Total(), rep.Faults.Commits)

	if err := serveCleanLife(ctx, cfg, &rep, ckpt, golden); err != nil {
		return rep, err
	}
	rep.LeakedGoroutines, _, rep.HeapAllocBytes = postMortem(ckpt)
	logf(cfg.Log, "chaostest: serve: post-mortem: %d leaked goroutine(s), %d KiB heap",
		rep.LeakedGoroutines, rep.HeapAllocBytes/1024)
	return rep, nil
}

// serveCleanLife restarts on a clean filesystem over the surviving
// checkpoint and requires full convergence: every tenant's resubmitted
// campaigns finish and render byte-identically to golden, dedup hits
// land, the overflow burst is shed politely, and the drain terminates.
func serveCleanLife(ctx context.Context, cfg Config, rep *ServeReport, ckpt string, golden [][]byte) error {
	srv, hs, err := cfg.start(serve.Config{
		QueueDepth:     queueDepth,
		RetryBudget:    64,
		CheckpointPath: ckpt, // salvage of life A's damage happens here
		DrainTimeout:   30 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("chaostest: clean server: %w", err)
	}
	defer func() {
		hs.Close()
		srv.Close()
	}()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// rounds submits one tenant's campaign twice: the second submission
	// repeats a grid the shared cache now holds in full, so it must be
	// pure dedup — and still byte-identical.
	rounds := func(ctx context.Context, c *client, raw, golden []byte) error {
		for round := 0; round < 2; round++ {
			a, err := c.submit(ctx, raw, "")
			for err == nil && a.code == http.StatusTooManyRequests {
				// A full queue on the clean server is legal backpressure;
				// honor the Retry-After and resubmit.
				if a.retryAfter == "" {
					return fmt.Errorf("chaostest: %s: 429 without Retry-After", c.tenant)
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(20 * time.Millisecond):
				}
				a, err = c.submit(ctx, raw, "")
			}
			if err != nil || a.code != http.StatusAccepted {
				return fmt.Errorf("chaostest: %s round %d: submit HTTP %d err %v", c.tenant, round, a.code, err)
			}
			mu.Lock()
			rep.SubmittedClean++
			mu.Unlock()
			final, mismatch, err := c.awaitAndCompare(ctx, a.ID, golden)
			if err == nil && final.State != serve.StateDone {
				err = fmt.Errorf("job %s on a clean filesystem: %s (%s)", a.ID, final.State, final.Error)
			}
			if err != nil {
				return fmt.Errorf("chaostest: %s round %d: %w", c.tenant, round, err)
			}
			mu.Lock()
			rep.Compared++
			rep.DedupHits += final.DedupHits
			rep.Identical = rep.Identical && mismatch == ""
			mu.Unlock()
			if mismatch != "" {
				return fmt.Errorf("chaostest: %s round %d: report differs from golden: %s", c.tenant, round, mismatch)
			}
		}
		return nil
	}
	rep.Identical = true
	bodies := make([]func(context.Context), tenants, tenants+1)
	for i := range bodies {
		v := i % len(variants)
		c := &client{base: hs.URL, tenant: fmt.Sprintf("tenant-%d", i), hc: hs.Client()}
		raw, _ := json.Marshal(serve.Request{Sections: variants[v]})
		bodies[i] = func(ctx context.Context) {
			if err := rounds(ctx, c, raw, golden[v]); err != nil {
				fail(err)
			}
		}
	}
	// Overflow probe: while the tenants above hold the shared pool busy,
	// one flood tenant bursts past its queue depth with deliberately
	// slow, uncached work (the windows/seeds overrides change every
	// fingerprint and multiply the simulated work, so the active job
	// outlives the whole burst) and must draw 429 + Retry-After — load
	// shedding, not queueing forever.
	flood := &client{base: hs.URL, tenant: "flood", hc: hs.Client()}
	raw, _ := json.Marshal(serve.Request{Sections: []string{"table3"}, Windows: 8, Seeds: 4})
	bodies = append(bodies, func(ctx context.Context) {
		sawRetryAfter := true
		rejected := 0
		for i := 0; i < queueDepth+6; i++ {
			a, err := flood.submit(ctx, raw, "")
			if err != nil {
				fail(fmt.Errorf("chaostest: flood submit: %w", err))
				return
			}
			if a.code == http.StatusTooManyRequests {
				rejected++
				sawRetryAfter = sawRetryAfter && a.retryAfter != ""
			}
		}
		mu.Lock()
		rep.Rejected429 += rejected
		rep.RetryAfterSeen = sawRetryAfter && rejected > 0
		mu.Unlock()
	})
	if _, err := life(ctx, nil, nil, bodies...); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}

	// Graceful drain: admission must close, in-flight (there is none
	// left, but queued flood jobs may remain) must settle, and the call
	// must return promptly.
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return fmt.Errorf("chaostest: drain: %w", err)
	}
	logf(cfg.Log, "chaostest: serve: life B: %d submitted, %d compared, identical=%v, dedup=%d, 429s=%d",
		rep.SubmittedClean, rep.Compared, rep.Identical, rep.DedupHits, rep.Rejected429)
	return nil
}
