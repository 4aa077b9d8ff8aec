// Package serve is the multi-tenant campaign serving layer: a
// long-running HTTP/JSON front end over the campaign engine. Tenants
// POST campaign specs; the server schedules them onto one shared
// Workers-bounded simulation pool with per-tenant fair queuing (each
// tenant runs at most one campaign at a time, so a tenant with a deep
// backlog cannot starve the others), admission control (bounded queue
// depth, 429 + Retry-After load shedding), per-request deadlines that
// propagate into the sim runner's context/stall-watchdog machinery, and
// cross-tenant deduplication through the checkpoint's content-addressed
// result cache — two tenants asking for overlapping grids pay for the
// overlap once.
//
// Robustness is the point: request handlers are panic-isolated, each
// tenant gets a retry budget and a circuit breaker reusing the campaign
// engine's self-healing, and SIGTERM/SIGINT triggers a graceful drain —
// stop admitting, let in-flight cells finish or reach the checkpoint,
// then exit. The torture harness (internal/chaostest) holds the whole
// stack to the same standard it holds the persistence layer to:
// byte-identical results under concurrency, injected I/O faults, and
// kill/restart.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/iofault"
	"tivapromi/internal/obs"
	"tivapromi/internal/report"
	"tivapromi/internal/sim"
)

// ErrDraining marks rejections issued while the server winds down.
var ErrDraining = errors.New("serve: server is draining")

// ErrRecoveryTimeout marks a journal-recovered job that sat in the
// recovering state past Config.RecoveryTimeout — the per-state deadline
// that turns "wedged forever" into a typed failure.
var ErrRecoveryTimeout = errors.New("serve: recovery budget exhausted while waiting to re-run")

// ErrRecoveryDisabled marks journal-replayed jobs failed at startup
// because the operator booted with recovery off (-recover=false).
var ErrRecoveryDisabled = errors.New("serve: interrupted by a restart and recovery is disabled")

// ErrIdempotencyConflict marks a submission reusing an Idempotency-Key
// with a different spec fingerprint — answered 409, never executed.
var ErrIdempotencyConflict = errors.New("serve: idempotency key reused with a different spec")

// Config tunes one Server.
type Config struct {
	// Workers bounds simulations in flight across every tenant's
	// campaigns — the one shared pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds each tenant's pending (not yet running) jobs;
	// submissions beyond it are shed with 429 + Retry-After (0 = 8).
	QueueDepth int
	// MaxTenants bounds distinct tenants; new tenants beyond it are
	// rejected with 429 (0 = 64).
	MaxTenants int
	// RetryBudget seeds each tenant's shared cell re-attempt pool — the
	// campaign engine's self-healing allowance, scoped per tenant so one
	// tenant's flaky grid cannot burn everyone's retries (0 = 32).
	RetryBudget int
	// BreakerAfter is the per-cell circuit breaker passed through to the
	// campaign engine (0 = campaign default).
	BreakerAfter int
	// TenantBreakAfter trips a per-tenant circuit breaker after this
	// many consecutive failed jobs; further submissions are rejected
	// with 429 until TenantCooldown passes (0 = 3).
	TenantBreakAfter int
	// TenantCooldown is how long a tripped tenant breaker stays open
	// (0 = 30s).
	TenantCooldown time.Duration
	// Limits bounds what one request may ask for (zero fields =
	// DefaultLimits).
	Limits Limits
	// BaseEval is the evaluation every request starts from before its
	// overrides (zero = campaign.DefaultEval()).
	BaseEval campaign.Eval
	// CheckpointPath, when non-empty, arms the shared content-addressed
	// result cache: one sim checkpoint all tenants' campaigns read and
	// write, which is both crash recovery and cross-tenant dedup.
	CheckpointPath string
	// FS is the filesystem seam under the shared cache (nil = the real
	// filesystem; the torture harness injects iofault.Chaos here).
	FS iofault.FS
	// PerRunTimeout bounds one simulation (0 = none).
	PerRunTimeout time.Duration
	// StallTimeout arms the sim runner's stall watchdog (0 = off).
	StallTimeout time.Duration
	// JobTimeout is the default whole-job deadline when a request does
	// not set timeout_ms (0 = none).
	JobTimeout time.Duration
	// DrainTimeout is the grace Drain gives in-flight jobs before
	// force-cancelling them (completed cells are already checkpointed,
	// so a force-cancelled job loses no finished work) (0 = 30s).
	DrainTimeout time.Duration
	// JournalPath, when non-empty, arms the write-ahead job journal:
	// every accepted submission is fsynced to this log before its 202,
	// and a restarted server replays it — re-admitting interrupted jobs
	// and answering duplicate Idempotency-Key submissions with the
	// original job id. Empty = journal off (no behavior change).
	JournalPath string
	// DisableRecovery boots with the journal armed but without
	// re-admitting replayed jobs: anything interrupted is failed with
	// ErrRecoveryDisabled instead of re-run. Idempotency-key answers
	// still work.
	DisableRecovery bool
	// RecoveryTimeout is the per-state deadline for recovering jobs: a
	// re-admitted job still waiting to re-run after this long fails
	// with ErrRecoveryTimeout instead of wedging (0 = 5m).
	RecoveryTimeout time.Duration
	// Log, when non-nil, receives one-line operational narration.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 32
	}
	if c.TenantBreakAfter <= 0 {
		c.TenantBreakAfter = 3
	}
	if c.TenantCooldown <= 0 {
		c.TenantCooldown = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 5 * time.Minute
	}
	if c.BaseEval.SeedsPerPoint == 0 {
		c.BaseEval = campaign.DefaultEval()
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// tenant is one client's serving state: a bounded FIFO of pending jobs,
// the at-most-one running job, the tenant-scoped retry budget, and the
// consecutive-failure circuit breaker.
type tenant struct {
	name      string
	queue     []*job
	pending   int // reservations between journal append and enqueue
	active    *job
	budget    atomic.Int64 // shared across the tenant's jobs
	fails     int          // consecutive failed jobs
	openUntil time.Time    // tenant breaker: reject submissions until then
}

// Counters aggregates the server's lifetime admission accounting.
type Counters struct {
	Admitted  atomic.Int64
	Rejected  atomic.Int64
	Completed atomic.Int64
	Failed    atomic.Int64
	Canceled  atomic.Int64
	Panics    atomic.Int64
}

// Server is the multi-tenant campaign server. Construct with New, mount
// Handler on an http.Server, and call Drain then Close on shutdown.
type Server struct {
	cfg  Config
	ck   *sim.Checkpoint
	gate chan struct{}

	baseCtx context.Context
	stop    context.CancelFunc

	journal *Journal // nil when JournalPath is empty: every append no-ops

	mu       sync.Mutex
	tenants  map[string]*tenant
	jobs     map[string]*job
	idem     map[string]*job // tenant\x00key → job, rebuilt from the journal
	nextID   int
	draining bool

	wg       sync.WaitGroup // running job goroutines
	counters Counters

	// runCampaign is the campaign entry point; tests override it to
	// control job timing without running real simulations.
	runCampaign func(context.Context, campaign.Spec, campaign.Options) (*campaign.ResultSet, error)
}

// New builds a Server, loading (or creating) the shared result cache
// when CheckpointPath is set.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:         cfg,
		gate:        make(chan struct{}, workers),
		tenants:     make(map[string]*tenant),
		jobs:        make(map[string]*job),
		idem:        make(map[string]*job),
		runCampaign: campaign.Run,
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.CheckpointPath != "" {
		ck, err := sim.LoadCheckpointFS(cfg.CheckpointPath, cfg.FS)
		if err != nil {
			return nil, fmt.Errorf("serve: shared cache: %w", err)
		}
		if note := ck.LoadReport().Note(); note != "" {
			s.logf("serve: shared cache: %s", note)
		}
		s.ck = ck
	}
	if cfg.JournalPath != "" {
		journal, replayed, err := OpenJournal(cfg.JournalPath, cfg.FS)
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %w", err)
		}
		s.journal = journal
		if note := journal.LoadReport().Note(); note != "" {
			s.logf("serve: %s", note)
		}
		s.recoverJobs(replayed)
	}
	return s, nil
}

// JournalReport returns what the journal load found on disk (the zero
// report when the journal is off).
func (s *Server) JournalReport() JournalLoadReport { return s.journal.LoadReport() }

// recoverJobs rebuilds the job ledger from the replayed journal: every
// job is re-registered (so status and idempotency answers survive the
// restart), terminal jobs keep their recorded outcome as status-only
// tombstones, and interrupted jobs — queued, recovering, running, or
// done with outputs lost to the crash — are re-admitted in recovering
// state. Their cells dedup against the shared checkpoint cache, so
// recovery re-renders rather than re-simulates. Runs during New, before
// any request or worker goroutine exists.
func (s *Server) recoverJobs(replayed []ReplayedJob) {
	recovered := 0
	for _, rj := range replayed {
		var n int
		if _, err := fmt.Sscanf(rj.Submit.ID, "j%06d", &n); err == nil && n > s.nextID {
			// Resume id allocation past every journaled id so a
			// restarted server never reissues one.
			s.nextID = n
		}
		t := s.tenants[rj.Submit.Tenant]
		if t == nil {
			// Recovery honors admissions from the previous boot even
			// past MaxTenants — they were already accepted once.
			t = &tenant{name: rj.Submit.Tenant}
			t.budget.Store(int64(s.cfg.RetryBudget))
			s.tenants[rj.Submit.Tenant] = t
		}
		req := rj.Submit.Request
		timeout := time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout <= 0 {
			timeout = s.cfg.JobTimeout
		}
		spec, ev, buildErr := BuildCampaign(req, s.cfg.BaseEval, s.cfg.Limits)
		j := newJob(rj.Submit.ID, rj.Submit.Tenant, append([]string(nil), req.Sections...), spec, ev, timeout)
		j.Fingerprint = rj.Submit.Fingerprint
		j.IdemKey = rj.Submit.IdemKey
		s.jobs[j.ID] = j
		if j.IdemKey != "" {
			s.idem[idemKey(j.Tenant, j.IdemKey)] = j
		}
		switch {
		case rj.State == StateFailed || rj.State == StateCanceled:
			// Tombstone: the outcome is known; only status survives.
			err := errors.New(rj.Err)
			if rj.Err == "" {
				err = fmt.Errorf("serve: journaled as %s", rj.State)
			}
			j.finish(rj.State, nil, nil, err)
		case buildErr != nil:
			// The section registry or limits changed across the restart.
			j.finish(StateFailed, nil, nil, fmt.Errorf("serve: recovery rebuild: %w", buildErr))
			s.journalState(j, StateFailed)
		case s.cfg.DisableRecovery:
			j.finish(StateFailed, nil, nil, ErrRecoveryDisabled)
			s.journalState(j, StateFailed)
		default:
			j.Recovered = true
			j.mu.Lock()
			j.state = StateRecovering
			// New incarnation: every SSE id the previous life issued
			// carries a smaller epoch, so it can never alias into this
			// re-run's numbering.
			j.epoch = rj.Epoch + 1
			j.mu.Unlock()
			t.queue = append(t.queue, j)
			recovered++
			obs.JobsRecovered.Inc()
			obs.QueueDepth.Add(1)
			s.journalState(j, StateRecovering)
			j.armDeadline(StateRecovering, s.cfg.RecoveryTimeout, ErrRecoveryTimeout, s.onPreRunExpiry)
			s.logf("serve: %s: job %s re-admitted from journal (was %s)", j.Tenant, j.ID, rj.State)
		}
	}
	if recovered > 0 {
		obs.Emit("journal-recovered", "jobs", fmt.Sprint(recovered))
		s.logf("serve: recovered %d interrupted job(s) from the journal", recovered)
	}
	for _, t := range s.tenants {
		s.dispatchLocked(t)
	}
}

// onPreRunExpiry books a job failed by its pre-run state deadline. It
// runs on the timer goroutine, after finishIf already settled the job.
func (s *Server) onPreRunExpiry(j *job) {
	s.counters.Failed.Add(1)
	obs.JobsFailed.Inc()
	obs.QueueDepth.Add(-1)
	s.journalState(j, StateFailed)
	obs.Emit("job-deadline", "job", j.ID, "tenant", j.Tenant)
	s.logf("serve: %s: job %s failed: %v", j.Tenant, j.ID, ErrRecoveryTimeout)
}

// idemKey builds the tenant-scoped idempotency map key.
func idemKey(tenant, key string) string { return tenant + "\x00" + key }

// journalState appends one lifecycle transition to the journal,
// best-effort: the submit record is the durable admission; a lost state
// record only means the job replays from an earlier state and re-runs
// against the result cache after a crash.
func (s *Server) journalState(j *job, state JobState) {
	if s.journal == nil {
		return
	}
	rec := StateRecord{ID: j.ID, State: state}
	rec.Epoch, rec.Seq = j.watermark()
	j.mu.Lock()
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	j.mu.Unlock()
	if err := s.journal.AppendState(rec); err != nil {
		s.logf("serve: journal state %s for %s: %v", state, j.ID, err)
	}
}

// SetRunCampaignForTest overrides the campaign entry point (nil
// restores campaign.Run). Unit tests use it to hold jobs open and
// observe scheduling order; it is never called by production code.
func (s *Server) SetRunCampaignForTest(fn func(context.Context, campaign.Spec, campaign.Options) (*campaign.ResultSet, error)) {
	if fn == nil {
		fn = campaign.Run
	}
	s.runCampaign = fn
}

// CacheStats returns the shared result cache's counters (zero when no
// cache is armed).
func (s *Server) CacheStats() sim.CacheStats { return s.ck.CacheStats() }

// CountersSnapshot returns the lifetime admission counters.
func (s *Server) CountersSnapshot() (admitted, rejected, completed, failed, canceled, panics int64) {
	return s.counters.Admitted.Load(), s.counters.Rejected.Load(),
		s.counters.Completed.Load(), s.counters.Failed.Load(),
		s.counters.Canceled.Load(), s.counters.Panics.Load()
}

// rejection describes a refused submission.
type rejection struct {
	status     int // HTTP status (429 or 503)
	retryAfter int // seconds for the Retry-After header
	reason     string
}

// submit admits one decoded request into its tenant's queue, or
// explains the refusal. Admission is O(1) and never blocks on running
// work — load shedding must stay responsive precisely when the server
// is busiest. With the journal armed, the submit record is fsynced
// between reservation and enqueue (off the server lock: an fsync under
// s.mu would serialize every status poll behind the disk), so the 202
// never outruns durability. replayed reports an idempotent duplicate —
// the returned job is the original, nothing was executed or journaled.
func (s *Server) submit(tenantName string, req Request) (j *job, replayed bool, rej *rejection) {
	spec, ev, err := BuildCampaign(req, s.cfg.BaseEval, s.cfg.Limits)
	if err != nil {
		return nil, false, &rejection{status: statusForSpecErr(err), retryAfter: 0, reason: err.Error()}
	}
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	fp := requestFingerprint(req)

	s.mu.Lock()
	// Idempotent replay is a read: it resolves before the drain check so
	// a client retrying its accepted submission during a drain still
	// learns its job id instead of a useless 503.
	if req.IdempotencyKey != "" {
		if orig := s.idem[idemKey(tenantName, req.IdempotencyKey)]; orig != nil {
			if orig.Fingerprint != fp {
				defer s.mu.Unlock()
				return nil, false, s.rejectLocked(tenantName, &rejection{
					status: 409,
					reason: fmt.Sprintf("%v (key %q is bound to job %s)", ErrIdempotencyConflict, req.IdempotencyKey, orig.ID),
				})
			}
			s.mu.Unlock()
			obs.IdempotentHits.Inc()
			obs.Emit("idempotent-hit", "tenant", tenantName, "job", orig.ID, "key", req.IdempotencyKey)
			return orig, true, nil
		}
	}
	if s.draining {
		defer s.mu.Unlock()
		return nil, false, s.rejectLocked(tenantName, &rejection{status: 503, retryAfter: int(s.cfg.DrainTimeout/time.Second) + 1, reason: ErrDraining.Error()})
	}
	t := s.tenants[tenantName]
	if t == nil {
		if len(s.tenants) >= s.cfg.MaxTenants {
			defer s.mu.Unlock()
			return nil, false, s.rejectLocked(tenantName, &rejection{status: 429, retryAfter: 30, reason: "serve: tenant table full"})
		}
		t = &tenant{name: tenantName}
		t.budget.Store(int64(s.cfg.RetryBudget))
		s.tenants[tenantName] = t
	}
	if until := t.openUntil; time.Now().Before(until) {
		defer s.mu.Unlock()
		return nil, false, s.rejectLocked(tenantName, &rejection{
			status:     429,
			retryAfter: int(time.Until(until)/time.Second) + 1,
			reason:     fmt.Sprintf("serve: tenant %q circuit breaker open after %d consecutive failed jobs", tenantName, t.fails),
		})
	}
	if len(t.queue)+t.pending >= s.cfg.QueueDepth {
		// Retry-After scales with the backlog: a deeper queue means a
		// longer wait before a slot frees up. pending counts admissions
		// between reservation and enqueue, so concurrent submissions
		// cannot overshoot the depth through the journal-append window.
		defer s.mu.Unlock()
		return nil, false, s.rejectLocked(tenantName, &rejection{status: 429, retryAfter: 2 * (len(t.queue) + t.pending), reason: "serve: tenant queue full"})
	}

	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j = newJob(id, tenantName, append([]string(nil), req.Sections...), spec, ev, timeout)
	j.Fingerprint = fp
	j.IdemKey = req.IdempotencyKey
	s.jobs[id] = j
	if j.IdemKey != "" {
		s.idem[idemKey(tenantName, j.IdemKey)] = j
	}
	t.pending++
	s.mu.Unlock()

	// Write-ahead: the job becomes runnable only after its submit record
	// is durable. On failure the reservation is rolled back and the
	// client told to retry — accepting an unjournaled job would be a
	// durability lie.
	if s.journal != nil {
		err := s.journal.AppendSubmit(SubmitRecord{
			ID: id, Tenant: tenantName, IdemKey: j.IdemKey, Fingerprint: fp, Request: req,
		})
		if err != nil {
			s.mu.Lock()
			delete(s.jobs, id)
			if j.IdemKey != "" {
				delete(s.idem, idemKey(tenantName, j.IdemKey))
			}
			t.pending--
			defer s.mu.Unlock()
			s.logf("serve: %s: journal append failed, rejecting submission: %v", tenantName, err)
			return nil, false, s.rejectLocked(tenantName, &rejection{status: 503, retryAfter: 5, reason: fmt.Sprintf("serve: journal append: %v", err)})
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	t.pending--
	if s.draining {
		// Drain began inside the journal-append window; the queued-job
		// sweep already ran, so settle this one the same way here.
		delete(s.jobs, id)
		if j.IdemKey != "" {
			delete(s.idem, idemKey(tenantName, j.IdemKey))
		}
		return nil, false, s.rejectLocked(tenantName, &rejection{status: 503, retryAfter: int(s.cfg.DrainTimeout/time.Second) + 1, reason: ErrDraining.Error()})
	}
	t.queue = append(t.queue, j)
	s.counters.Admitted.Add(1)
	obs.JobsAdmitted.Inc()
	obs.QueueDepth.Add(1)
	s.dispatchLocked(t)
	return j, false, nil
}

// requestFingerprint content-addresses a submission for idempotency:
// the SHA-256 of the request's canonical JSON with the scoping fields
// (tenant, the key itself) cleared — two bodies asking for the same
// work fingerprint identically regardless of which tenant or key
// carries them.
func requestFingerprint(req Request) string {
	req.Tenant = ""
	req.IdempotencyKey = ""
	raw, err := json.Marshal(req)
	if err != nil {
		return "unfingerprintable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// rejectLocked books one shed submission in both accounting planes and
// hands the rejection back. Requires s.mu held.
func (s *Server) rejectLocked(tenantName string, r *rejection) *rejection {
	s.counters.Rejected.Add(1)
	obs.JobsRejected.Inc()
	obs.Emit("job-rejected",
		"tenant", tenantName,
		"status", fmt.Sprint(r.status),
		"reason", r.reason)
	return r
}

// statusForSpecErr maps decode/build failures to HTTP statuses.
func statusForSpecErr(err error) int {
	if errors.Is(err, ErrSpecTooLarge) {
		return 413
	}
	return 400
}

// dispatchLocked starts the tenant's next queued job when none is
// running. One active job per tenant IS the fair-queuing discipline:
// every tenant with work holds exactly one campaign against the shared
// gate, so pool slots divide across tenants, not across backlogs.
// Requires s.mu held.
func (s *Server) dispatchLocked(t *tenant) {
	if t.active != nil || s.draining {
		return
	}
	for len(t.queue) > 0 {
		j := t.queue[0]
		t.queue = t.queue[1:]
		obs.QueueDepth.Add(-1)
		if j.terminal() {
			// Settled while queued (a recovery-budget expiry); already
			// booked by whoever settled it. Keep popping.
			continue
		}
		t.active = j
		obs.ActiveJobs.Add(1)
		s.wg.Add(1)
		go s.runJob(t, j)
		return
	}
}

// runJob executes one admitted campaign end to end: context assembly
// (server lifetime + per-job deadline), the hardened runner over the
// shared cache, tenant-scoped self-healing, rendering, and tenant
// bookkeeping. It never panics the server: the campaign engine already
// converts worker panics into cell errors, and this goroutine's own
// epilogue is defer-protected.
func (s *Server) runJob(t *tenant, j *job) {
	defer s.wg.Done()
	span := obs.StartSpan("job-run", "serve", "job", j.ID, "tenant", t.name)
	state, rep, svg, jobErr := s.executeJob(t, j)
	settled := j.finishIf("", state, rep, svg, jobErr)
	if settled {
		s.journalState(j, state)
	}
	span.End("state", string(state))
	s.logf("serve: %s: job %s %s", t.name, j.ID, state)

	// Reconstruct the queue-wait leg of the lifecycle retroactively —
	// queued→started is only known once the job actually started — and
	// book the admission-to-settle latency.
	j.mu.Lock()
	created, started, finished := j.created, j.started, j.finished
	j.mu.Unlock()
	if !started.IsZero() && started.After(created) {
		obs.SpanBetween("job-queue-wait", "serve", created, started,
			"job", j.ID, "tenant", t.name)
	}
	if !finished.IsZero() {
		obs.JobSeconds.Observe(finished.Sub(created).Seconds())
	}

	// The epilogue runs whatever happened above — a panicking job must
	// never leave its tenant marked active, or the queue wedges.
	s.mu.Lock()
	defer s.mu.Unlock()
	t.active = nil
	obs.ActiveJobs.Add(-1)
	if !settled {
		// A pre-run deadline beat this goroutine to the terminal
		// transition and booked the outcome itself.
		s.dispatchLocked(t)
		return
	}
	switch state {
	case StateDone:
		s.counters.Completed.Add(1)
		obs.JobsCompleted.Inc()
		t.fails = 0
	case StateCanceled:
		s.counters.Canceled.Add(1)
		obs.JobsCanceled.Inc()
	default:
		s.counters.Failed.Add(1)
		obs.JobsFailed.Inc()
		t.fails++
		if t.fails >= s.cfg.TenantBreakAfter {
			t.openUntil = time.Now().Add(s.cfg.TenantCooldown)
			obs.TenantBreakerTrips.Inc()
			obs.Emit("tenant-breaker-open",
				"tenant", t.name,
				"fails", fmt.Sprint(t.fails),
				"cooldown", s.cfg.TenantCooldown.String())
			obs.Instant("tenant-breaker-open", "serve", "tenant", t.name)
			s.logf("serve: %s: circuit breaker OPEN for %s after %d consecutive failures",
				t.name, s.cfg.TenantCooldown, t.fails)
		}
	}
	s.dispatchLocked(t)
}

// executeJob runs the campaign and renders the outputs, converting any
// panic on the job path into a failed job (the server survives).
func (s *Server) executeJob(t *tenant, j *job) (state JobState, rep, svg []byte, jobErr error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.counters.Panics.Add(1)
			obs.HandlerPanics.Inc()
			obs.Emit("job-panic", "tenant", t.name, "job", j.ID, "value", fmt.Sprint(rec))
			s.logf("serve: %s: job %s PANIC: %v", t.name, j.ID, rec)
			state, rep, svg, jobErr = StateFailed, nil, nil, fmt.Errorf("serve: job panicked: %v", rec)
		}
	}()
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.Timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	if !j.start(cancel) {
		// Settled between dispatch and here (deadline race): report the
		// terminal state as-is; runJob's conditional finish will no-op.
		st, jrep, jsvg, jerr := j.snapshot()
		return st, jrep, jsvg, jerr
	}
	s.journalState(j, StateRunning)
	s.logf("serve: %s: job %s started (%d cells)", t.name, j.ID, len(j.Spec.Cells))

	runner := sim.NewRunner()
	runner.Config.Workers = s.cfg.Workers
	runner.Config.PerRunTimeout = s.cfg.PerRunTimeout
	runner.Config.StallTimeout = s.cfg.StallTimeout
	runner.Checkpoint = s.ck

	before := s.ck.CacheStats()
	rs, err := s.runCampaign(ctx, j.Spec, campaign.Options{
		Workers:           s.cfg.Workers,
		Runner:            runner,
		Gate:              s.gate,
		Tenant:            t.name,
		OnProgress:        j.onProgress,
		SharedRetryBudget: &t.budget,
		BreakerAfter:      s.cfg.BreakerAfter,
	})
	hits := s.ck.CacheStats().Hits() - before.Hits()
	j.mu.Lock()
	j.dedupHits = hits
	j.mu.Unlock()
	return s.settle(j, rs, err)
}

// settle classifies a finished campaign and renders its outputs.
func (s *Server) settle(j *job, rs *campaign.ResultSet, err error) (JobState, []byte, []byte, error) {
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		return StateCanceled, nil, nil, err
	case err != nil:
		return StateFailed, nil, nil, err
	}
	if skipped := rs.Skipped(); len(skipped) > 0 {
		return StateFailed, nil, nil, fmt.Errorf("serve: %d cell(s) skipped after self-healing: %v", len(skipped), skipped)
	}
	if cellErr := rs.Err(); cellErr != nil {
		return StateFailed, nil, nil, cellErr
	}
	rep, svg, rerr := RenderReport(j.Eval, rs, j.Names)
	if rerr != nil {
		return StateFailed, nil, nil, rerr
	}
	return StateDone, rep, svg, nil
}

// RenderReport renders the named sections from an executed result set
// with exactly the separator discipline cmd/experiments uses, so a
// served report is byte-identical to the CLI run of the same sections.
// The second return value is the fig4 SVG when that section was part of
// the request (nil otherwise).
func RenderReport(ev campaign.Eval, rs *campaign.ResultSet, names []string) (text, svg []byte, err error) {
	var buf, svgBuf bytes.Buffer
	rc := &report.Context{Eval: ev, Results: rs, SVGSink: &svgBuf}
	for i, name := range names {
		def, ok := report.Section(name)
		if !ok {
			return nil, nil, fmt.Errorf("serve: unknown section %q", name)
		}
		if err := def.Render(&buf, rc); err != nil {
			return nil, nil, err
		}
		if len(names) > 1 || i < len(names)-1 {
			buf.WriteByte('\n')
		}
	}
	if svgBuf.Len() == 0 {
		return buf.Bytes(), nil, nil
	}
	return buf.Bytes(), svgBuf.Bytes(), nil
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain winds the server down gracefully: admission closes immediately
// (submissions get 503 + Retry-After), queued jobs are cancelled where
// they stand, and in-flight jobs get DrainTimeout to finish — their
// completed cells are already in the shared cache, so even a job that
// is then force-cancelled loses no finished work. The shared cache is
// flushed before returning. Drain is idempotent; ctx bounds the whole
// wait on top of DrainTimeout.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var dropped []*job
	cleared := 0
	if !already {
		for _, t := range s.tenants {
			cleared += len(t.queue)
			for _, qj := range t.queue {
				// Jobs already settled in the queue (recovery-budget
				// expiries) were booked by whoever settled them.
				if !qj.terminal() {
					dropped = append(dropped, qj)
				}
			}
			t.queue = nil
		}
	}
	s.mu.Unlock()
	span := obs.StartSpan("drain", "serve", "dropped", fmt.Sprint(len(dropped)))
	defer span.End()
	obs.QueueDepth.Add(-int64(cleared))
	obs.Emit("drain-start", "dropped", fmt.Sprint(len(dropped)))
	for _, j := range dropped {
		if j.finishIf("", StateCanceled, nil, nil, ErrDraining) {
			s.journalState(j, StateCanceled)
			s.counters.Canceled.Add(1)
			obs.JobsCanceled.Inc()
		}
	}
	s.logf("serve: draining: %d queued job(s) cancelled, waiting up to %s for in-flight work", len(dropped), s.cfg.DrainTimeout)

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	grace := time.NewTimer(s.cfg.DrainTimeout)
	defer grace.Stop()
	select {
	case <-finished:
	case <-grace.C:
		// Grace expired: checkpoint what is in flight by cancelling it.
		s.mu.Lock()
		var running []*job
		for _, t := range s.tenants {
			if t.active != nil {
				running = append(running, t.active)
			}
		}
		s.mu.Unlock()
		s.logf("serve: drain grace expired, force-cancelling %d running job(s)", len(running))
		for _, j := range running {
			j.forceCancel()
		}
		select {
		case <-finished:
		case <-ctx.Done():
			return ctx.Err()
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := s.ck.Close(); err != nil {
		return fmt.Errorf("serve: drain close: %w", err)
	}
	obs.Emit("drained")
	s.logf("serve: drained")
	return nil
}

// Close hard-stops the server: every running job's context dies and the
// job goroutines are awaited. Safe after (or instead of) Drain; the
// torture harness uses a bare Close as its mid-flight kill.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	var dropped []*job
	cleared := 0
	for _, t := range s.tenants {
		cleared += len(t.queue)
		for _, qj := range t.queue {
			if !qj.terminal() {
				dropped = append(dropped, qj)
			}
		}
		t.queue = nil
	}
	s.mu.Unlock()
	obs.QueueDepth.Add(-int64(cleared))
	for _, j := range dropped {
		if j.finishIf("", StateCanceled, nil, nil, ErrDraining) {
			s.journalState(j, StateCanceled)
			s.counters.Canceled.Add(1)
			obs.JobsCanceled.Inc()
		}
	}
	s.stop()
	s.wg.Wait()
	// The journal closes after the last job goroutine has appended its
	// terminal record; a poweroff-style kill (chaos harness) makes these
	// appends fail instead, which is exactly the point.
	if err := s.journal.Close(); err != nil {
		s.logf("serve: journal close: %v", err)
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}
