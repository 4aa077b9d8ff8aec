// Package servetest is the serving-layer torture harness: it stands a
// real campaign server (internal/serve) on the fault-injecting
// filesystem of internal/iofault, drives it with concurrent tenants over
// real HTTP, hard-kills the server mid-flight at a seeded
// checkpoint-commit ordinal, restarts it on the same checkpoint path,
// and verifies the restarted server converges: every tenant's report
// byte-identical to an undisturbed serial run, admission overload shed
// with 429 + Retry-After, a graceful drain that terminates, zero serve
// goroutines left behind, and bounded heap.
//
// It is to the serving layer what internal/chaostest is to the
// persistence layer — the same discipline (golden run, chaos cycle,
// clean convergence, byte identity), one layer up the stack.
package servetest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/chaostest"
	"tivapromi/internal/iofault"
	"tivapromi/internal/rng"
	"tivapromi/internal/serve"
)

// Config tunes one serving torture run.
type Config struct {
	// Seed drives the chaos fault schedule and the kill ordinal.
	Seed uint64
	// Tenants is the number of concurrent clients (≤ 0 means 4).
	Tenants int
	// Workers bounds the server's shared simulation pool (≤ 0 means 4).
	Workers int
	// QueueDepth is the per-tenant admission bound (≤ 0 means 2); the
	// overflow probe submits past it and expects 429s.
	QueueDepth int
	// Variants are the campaign section sets tenants cycle through
	// (empty = a default overlapping mix, so cross-tenant dedup is
	// guaranteed work to find).
	Variants [][]string
	// Eval is the evaluation scale (zero = chaostest.TestScaleEval()).
	Eval campaign.Eval
	// Dir is the working directory for the shared checkpoint ("" = the
	// caller must supply one; the harness does not clean up).
	Dir string
	// Log, when non-nil, receives the harness's progress narration.
	Log io.Writer
}

// Report summarizes one serving torture run.
type Report struct {
	// Variants is the number of distinct golden reports computed.
	Variants int
	// SubmittedChaos / SubmittedClean count accepted submissions per phase.
	SubmittedChaos, SubmittedClean int
	// Killed reports whether the mid-flight kill actually fired (a chaos
	// phase that finishes before its kill ordinal, or before any fault,
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

// DefaultVariants is the overlapping campaign mix: tenants 0 and 3 share
// table2 cells, tenants 2 and 3 share flooding cells, and phase-B
// resubmission repeats every grid — cross-tenant and cross-phase dedup
// both have guaranteed work.
func DefaultVariants() [][]string {
	return [][]string{
		{"table2"},
		{"table3"},
		{"flooding"},
		{"table2", "flooding"},
	}
}

// client is one tenant's HTTP-side view of the server.
type client struct {
	base   string
	tenant string
	hc     *http.Client
}

func (c *client) submit(body []byte) (serve.Status, int, string, error) {
	req, err := http.NewRequest("POST", c.base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, 0, "", err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.Status{}, 0, "", err
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, retryAfter, err
}

func (c *client) status(id string) (serve.Status, error) {
	req, err := http.NewRequest("GET", c.base+"/v1/campaigns/"+id, nil)
	if err != nil {
		return serve.Status{}, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	var st serve.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *client) report(id string) ([]byte, error) {
	req, err := http.NewRequest("GET", c.base+"/v1/campaigns/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("servetest: report fetch for %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// awaitTerminal polls a job to a terminal state. A transport error means
// the server died under the caller's feet (the chaos phase's kill); it
// is returned for the caller to classify.
func (c *client) awaitTerminal(ctx context.Context, id string) (serve.Status, error) {
	for {
		st, err := c.status(id)
		if err != nil {
			return serve.Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Run executes the serving torture protocol:
//
//  1. golden: run each campaign variant once, serially and undisturbed
//     (no server, no checkpoint), and render it exactly as the server
//     would — the per-variant golden bytes;
//  2. chaos: start a server whose shared cache lives on the chaos
//     filesystem, drive it with Tenants concurrent clients, and
//     hard-kill it at a seeded checkpoint-commit ordinal;
//  3. restart: start a fresh server on a clean filesystem over the same
//     checkpoint path (salvage happens at load), have every tenant
//     resubmit twice, and require every finished report byte-identical
//     to its golden — plus shared-cache dedup hits, since phase 2's
//     surviving cells and the repeated grids overlap;
//  4. overflow: one flood tenant bursts past its queue depth and must
//     be shed with 429 + Retry-After, never an error or a hang;
//  5. drain: gracefully drain the clean server, then assert no serve
//     goroutine survived and the heap stayed bounded.
func Run(ctx context.Context, cfg Config) (Report, error) {
	var rep Report
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
	queueDepth := cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 2
	}
	variants := cfg.Variants
	if len(variants) == 0 {
		variants = DefaultVariants()
	}
	ev := cfg.Eval
	if ev.SeedsPerPoint == 0 {
		ev = chaostest.TestScaleEval()
	}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("servetest: Config.Dir is required")
	}
	ckpt := filepath.Join(cfg.Dir, "serve-cache.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0x5e47e57)

	// Phase 1: golden bytes per variant.
	golden, err := goldens(ctx, variants, ev)
	if err != nil {
		return rep, err
	}
	rep.Variants = len(golden)
	logf(cfg.Log, "servetest: %d golden variant(s) computed", rep.Variants)

	// Phase 2: chaos server, concurrent tenants, mid-flight kill.
	if err := runChaosPhase(ctx, cfg, &rep, tenants, workers, queueDepth, variants, ev, ckpt, master); err != nil {
		return rep, err
	}

	// Phase 3–5: clean restart, convergence, overflow, drain.
	if err := runCleanPhase(ctx, cfg, &rep, tenants, workers, queueDepth, variants, ev, ckpt, golden); err != nil {
		return rep, err
	}

	// Post-mortem: serve goroutines and heap.
	rep.LeakedGoroutines = serveGoroutines()
	for wait := 0; rep.LeakedGoroutines > 0 && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		rep.LeakedGoroutines = serveGoroutines()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapAllocBytes = ms.HeapAlloc
	logf(cfg.Log, "servetest: post-mortem: %d leaked goroutine(s), %d KiB heap",
		rep.LeakedGoroutines, rep.HeapAllocBytes/1024)
	return rep, nil
}

// goldens renders each distinct variant the way the server renders it
// (same spec expansion, same renderer) but serially, with no checkpoint
// and no faults: the bytes every served report must match, keyed by the
// variant's section names joined with "+".
func goldens(ctx context.Context, variants [][]string, ev campaign.Eval) (map[string][]byte, error) {
	golden := make(map[string][]byte, len(variants))
	for _, names := range variants {
		key := strings.Join(names, "+")
		if _, ok := golden[key]; ok {
			continue
		}
		spec, gev, err := serve.BuildCampaign(serve.Request{Sections: names}, ev, serve.Limits{})
		if err != nil {
			return nil, fmt.Errorf("servetest: golden %s: %w", key, err)
		}
		rs, err := campaign.Run(ctx, spec, campaign.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("servetest: golden %s: %w", key, err)
		}
		text, _, err := serve.RenderReport(gev, rs, names)
		if err != nil {
			return nil, fmt.Errorf("servetest: golden %s render: %w", key, err)
		}
		golden[key] = text
	}
	return golden, nil
}

// runChaosPhase drives the chaos server with concurrent tenants until
// either every submitted job settles or the seeded kill lands. Nothing
// about the jobs' outcomes is asserted here — under injected faults a
// job may fail or be skipped — only that the server survives to be
// killed and its checkpoint writes happened through the chaos FS.
func runChaosPhase(ctx context.Context, cfg Config, rep *Report, tenants, workers, queueDepth int, variants [][]string, ev campaign.Eval, ckpt string, master *rng.XorShift64Star) error {
	fsys := iofault.NewChaos(nil, chaostest.ChaosOdds(master.Uint64()))
	killAt := 1 + rng.Intn(master, 12)
	killCh := make(chan struct{})
	var killOnce sync.Once
	// The kill lands at the first commit at or past killAt that follows
	// an injected fault: a phase killed before any fault restarts from
	// a clean checkpoint and leaves the fault paths untested. Which
	// draw faults depends on how many decisions each commit takes, so
	// the ordinal alone cannot promise one.
	fsys.OnCommit = func(_ string, n int) {
		if n >= killAt && fsys.Stats().Total() > 0 {
			killOnce.Do(func() { close(killCh) })
		}
	}
	srv, err := serve.New(serve.Config{
		Workers:        workers,
		QueueDepth:     queueDepth,
		RetryBudget:    64, // generous: write faults surface as retryable cell errors
		BaseEval:       ev,
		CheckpointPath: ckpt,
		FS:             fsys,
		DrainTimeout:   time.Second,
		Log:            cfg.Log,
	})
	if err != nil {
		return fmt.Errorf("servetest: chaos server: %w", err)
	}
	hs := httptest.NewServer(srv.Handler())

	var wg sync.WaitGroup
	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	var mu sync.Mutex
	for i := 0; i < tenants; i++ {
		names := variants[i%len(variants)]
		c := &client{base: hs.URL, tenant: fmt.Sprintf("tenant-%d", i), hc: hs.Client()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(serve.Request{Sections: names})
			st, code, _, err := c.submit(raw)
			if err != nil || code != http.StatusAccepted {
				return // server already dead or shedding; the phase only needs traffic
			}
			mu.Lock()
			rep.SubmittedChaos++
			mu.Unlock()
			c.awaitTerminal(clientCtx, st.ID)
		}()
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
		return ctx.Err()
	}
	// The kill: no drain — the server dies where it stands, exactly like
	// a SIGKILL'd process. Whatever reached the checkpoint through the
	// chaos FS is what the restart inherits.
	stopClients()
	srv.Close()
	hs.Close()
	wg.Wait()
	rep.Faults = fsys.Stats()
	logf(cfg.Log, "servetest: chaos phase: %d submitted, killAt=%d killed=%v, %d fault(s), %d commit(s)",
		rep.SubmittedChaos, killAt, rep.Killed, rep.Faults.Total(), rep.Faults.Commits)
	return nil
}

// runCleanPhase restarts on a clean filesystem over the surviving
// checkpoint and requires full convergence: every tenant's resubmitted
// campaigns finish and render byte-identically to golden, dedup hits
// land, the overflow burst is shed politely, and the drain terminates.
func runCleanPhase(ctx context.Context, cfg Config, rep *Report, tenants, workers, queueDepth int, variants [][]string, ev campaign.Eval, ckpt string, golden map[string][]byte) error {
	srv, err := serve.New(serve.Config{
		Workers:        workers,
		QueueDepth:     queueDepth,
		RetryBudget:    64,
		BaseEval:       ev,
		CheckpointPath: ckpt, // salvage of chaos-phase damage happens here
		DrainTimeout:   30 * time.Second,
		Log:            cfg.Log,
	})
	if err != nil {
		return fmt.Errorf("servetest: clean server: %w", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(chan error, 2*tenants+2)
	allMatch := true
	for i := 0; i < tenants; i++ {
		names := variants[i%len(variants)]
		key := strings.Join(names, "+")
		c := &client{base: hs.URL, tenant: fmt.Sprintf("tenant-%d", i), hc: hs.Client()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Twice: the second submission repeats a grid the shared cache
			// now holds in full, so it must be pure dedup — and still
			// byte-identical.
			for round := 0; round < 2; round++ {
				raw, _ := json.Marshal(serve.Request{Sections: names})
				st, code, retryAfter, err := c.submit(raw)
				for code == http.StatusTooManyRequests {
					// A full queue on the clean server is legal backpressure;
					// honor the Retry-After and resubmit.
					if retryAfter == "" {
						errs <- fmt.Errorf("servetest: %s: 429 without Retry-After", c.tenant)
						return
					}
					select {
					case <-ctx.Done():
						errs <- ctx.Err()
						return
					case <-time.After(20 * time.Millisecond):
					}
					st, code, retryAfter, err = c.submit(raw)
				}
				if err != nil || code != http.StatusAccepted {
					errs <- fmt.Errorf("servetest: %s round %d: submit HTTP %d err %v", c.tenant, round, code, err)
					return
				}
				mu.Lock()
				rep.SubmittedClean++
				mu.Unlock()
				final, err := c.awaitTerminal(ctx, st.ID)
				if err != nil {
					errs <- fmt.Errorf("servetest: %s round %d: %w", c.tenant, round, err)
					return
				}
				if final.State != serve.StateDone {
					errs <- fmt.Errorf("servetest: %s round %d: job %s on a clean filesystem: %s (%s)",
						c.tenant, round, st.ID, final.State, final.Error)
					return
				}
				text, err := c.report(st.ID)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				rep.Compared++
				rep.DedupHits += final.DedupHits
				if !bytes.Equal(text, golden[key]) {
					allMatch = false
					errs <- fmt.Errorf("servetest: %s round %d: report for %s differs from golden (%d vs %d bytes)",
						c.tenant, round, key, len(text), len(golden[key]))
				}
				mu.Unlock()
			}
		}()
	}

	// Overflow probe: while the tenants above hold the shared pool busy,
	// one flood tenant bursts past its queue depth with deliberately
	// slow, uncached work (the windows/seeds overrides change every
	// fingerprint and multiply the simulated work, so the active job
	// outlives the whole burst) and must draw 429 + Retry-After — load
	// shedding, not queueing forever.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &client{base: hs.URL, tenant: "flood", hc: hs.Client()}
		raw, _ := json.Marshal(serve.Request{Sections: []string{"table3"}, Windows: 8, Seeds: 4})
		sawRetryAfter := true
		rejected := 0
		for i := 0; i < queueDepth+6; i++ {
			_, code, retryAfter, err := c.submit(raw)
			if err != nil {
				errs <- fmt.Errorf("servetest: flood submit: %w", err)
				return
			}
			if code == http.StatusTooManyRequests {
				rejected++
				if retryAfter == "" {
					sawRetryAfter = false
				}
			}
		}
		mu.Lock()
		rep.Rejected429 += rejected
		rep.RetryAfterSeen = sawRetryAfter && rejected > 0
		mu.Unlock()
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	rep.Identical = allMatch && rep.Compared > 0

	// Graceful drain: admission must close, in-flight (there is none
	// left, but queued flood jobs may remain) must settle, and the call
	// must return promptly.
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return fmt.Errorf("servetest: drain: %w", err)
	}
	logf(cfg.Log, "servetest: clean phase: %d submitted, %d compared, identical=%v, dedup=%d, 429s=%d",
		rep.SubmittedClean, rep.Compared, rep.Identical, rep.DedupHits, rep.Rejected429)
	return nil
}

// serveGoroutines counts goroutines currently executing serve job or
// drain machinery.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "serve.(*Server).runJob") ||
			strings.Contains(g, "serve.(*Server).executeJob") ||
			strings.Contains(g, "serve.(*Server).Drain") {
			n++
		}
	}
	return n
}

// logf writes one narration line when a log sink is configured.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
