package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"tivapromi/internal/obs"
)

// ErrPermanent marks failures that retrying cannot fix: invalid
// configurations, unknown techniques, per-run deadline overruns of a
// deterministic simulation. errors.Is(err, ErrPermanent) reports whether
// an error carries the mark.
var ErrPermanent = errors.New("permanent failure")

// permanent marks err as non-retriable.
func permanent(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrPermanent, err)
}

// PanicError is a worker panic converted into an error, preserving the
// panic value and the goroutine stack at recovery time.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// RunError records one seed's failure inside a sweep. A sweep with
// RunErrors still carries every completed seed's result — partial results
// survive worker failures.
type RunError struct {
	Seed     uint64
	Attempts int // runs attempted for this seed (≥ 1)
	Err      error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("sim: seed %#x failed after %d attempt(s): %v", e.Seed, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// RunnerConfig tunes the hardened seed-sweep runner.
type RunnerConfig struct {
	// Workers bounds the worker pool (≤ 0 means GOMAXPROCS). The old
	// runner launched one bare goroutine per seed; a paper-scale sweep
	// over hundreds of seeds would stampede the scheduler and defeat the
	// per-run memory locality the Device model relies on.
	Workers int
	// PerRunTimeout is the deadline for one simulation (0 = none). A
	// deterministic run that overruns it is recorded as a permanent
	// RunError — retrying would overrun again.
	PerRunTimeout time.Duration
	// Retries is the number of re-attempts for transient failures (a
	// worker panic, a stall-watchdog cancellation, or an error marked
	// transient by a custom factory). Permanent and context errors are
	// never retried.
	Retries int
	// Backoff is the base delay before a retry (default 10ms). The
	// actual sleeps follow a seeded decorrelated-jitter schedule (see
	// RetryJitter): reproducible for a given seed, but desynchronized
	// across workers so retry storms don't beat in lockstep. Sleeps are
	// context-aware: cancellation cuts them short.
	Backoff time.Duration
	// MaxBackoff caps one retry sleep (0 = 64 × Backoff).
	MaxBackoff time.Duration
	// JitterSeed perturbs the per-seed retry-jitter streams; the
	// default (0) is fine — each simulated seed already gets its own
	// stream — but campaigns that want globally distinct schedules can
	// set it.
	JitterSeed uint64

	// StallTimeout arms the stall watchdog (0 = disabled): a run whose
	// progress heartbeat (see Heartbeat) goes silent for longer than
	// this is cancelled and classified as ErrStalled — separately from
	// a PerRunTimeout overrun, which is permanent. Stalls are usually
	// scheduling wedges, so they are retried as transient failures.
	// Workloads that never tick are exempt (the watchdog only judges
	// runs that demonstrated heartbeat cooperation).
	StallTimeout time.Duration

	// Gate optionally bounds concurrency across several sweeps sharing
	// the same channel: every run of a seed (a whole group, when members
	// share it) and every RunnerConfig.Do probe holds one token for its
	// duration. The campaign scheduler threads one gate through all
	// cells of a campaign so cross-section parallelism never exceeds the
	// campaign's worker budget, however many sweeps are in flight. nil
	// means only Workers bounds concurrency.
	Gate chan struct{}

	// runFn overrides the run function for tests (nil = RunCtx). A
	// hooked runner runs every group member alone through it.
	runFn func(context.Context, Config, string) (Result, error)
}

// SetRunFnForTest overrides the run function (nil restores RunCtx). It
// exists for cross-package tests — the campaign scheduler's hardening
// tests inject deterministic stalls and failures below the scheduler —
// and is never called by production code. A hooked runner runs each
// member of a group alone, so fn sees one (Config, technique) per call.
func (rc *RunnerConfig) SetRunFnForTest(fn func(context.Context, Config, string) (Result, error)) {
	rc.runFn = fn
}

// DefaultRunnerConfig returns the standard pool sizing: GOMAXPROCS
// workers, no per-run deadline, two retries with 10ms base backoff.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{Retries: 2, Backoff: 10 * time.Millisecond}
}

func (rc RunnerConfig) workers(jobs int) int {
	w := rc.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// jitter builds the decorrelated retry-jitter source for one seed's
// attempt sequence. Mixing the simulated seed in decorrelates workers
// (each sweeps a different seed) while keeping every schedule
// reproducible.
func (rc RunnerConfig) jitter(seed uint64) *RetryJitter {
	return NewRetryJitter(rc.Backoff, rc.MaxBackoff, rc.JitterSeed^(seed*0x9e3779b97f4a7c15+0x7f4a7c15))
}

// RunSeedsCtx executes Run for every seed under ctx with a bounded worker
// pool, per-run deadlines, panic recovery and retry-with-backoff, then
// aggregates whatever completed. Worker panics become structured
// RunErrors instead of crashing the process, and cancellation returns the
// partial Summary alongside per-seed context errors — a multi-hour sweep
// killed at 90% keeps its 90%.
//
// The returned error is non-nil only for unusable inputs (no seeds);
// per-seed failures, including cancellation, are reported in the RunError
// slice (ordered by seed position) while the Summary covers the seeds
// that finished. It is Runner.RunSeeds without a checkpoint.
func RunSeedsCtx(ctx context.Context, rc RunnerConfig, cfg Config, technique string, seeds []uint64) (Summary, []*RunError, error) {
	return (&Runner{Config: rc}).RunSeeds(ctx, cfg, technique, seeds)
}

// attempt labels one run attempt in traces and events: the technique(s),
// the seed, the campaign cell(s), the group's member count and how many
// of its members ride another (see Ride).
type attempt struct {
	technique string
	seed      uint64
	cell      string
	members   int
	riders    int
}

// attemptOf labels an attempt of the given group (one member for a solo
// run).
func attemptOf(group []Member) attempt {
	a := attempt{seed: group[0].Config.Seed, members: len(group), riders: countRiders(group)}
	for i, m := range group {
		if i > 0 {
			a.technique += ","
			a.cell += ","
		}
		a.technique += m.Technique
		a.cell += m.Cell
	}
	return a
}

func (a attempt) seedHex() string { return "0x" + strconv.FormatUint(a.seed, 16) }

// runWithRetry makes attempts at fn with panic recovery, a per-run
// deadline, the stall watchdog, and seeded decorrelated-jitter backoff
// between attempts. It returns the number of attempts made.
func runWithRetry(ctx context.Context, rc RunnerConfig, a attempt, fn func(context.Context) error) (int, error) {
	var lastErr error
	var jit *RetryJitter
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return attempts, lastErr
			}
			return attempts, err
		}
		attempts++
		err := runOnce(ctx, rc, a, fn)
		if err == nil {
			return attempts, nil
		}
		lastErr = err
		if attempts > rc.Retries || !retriable(ctx, err) {
			return attempts, err
		}
		obs.RunRetries.Inc()
		obs.Instant("run-retry", "runner",
			"seed", a.seedHex(),
			"attempt", strconv.Itoa(attempts),
			"err", err.Error())
		obs.Emit("run-retry",
			"seed", a.seedHex(),
			"attempt", strconv.Itoa(attempts),
			"err", err.Error())
		if jit == nil {
			jit = rc.jitter(a.seed)
		}
		if !sleepCtx(ctx, jit.Next()) {
			return attempts, lastErr
		}
	}
}

// runOnce makes one attempt at fn, converting a panic into a PanicError,
// enforcing the per-run deadline (scaled by the group's member count),
// and — when StallTimeout is armed — running the heartbeat watchdog
// beside the workload.
func runOnce(ctx context.Context, rc RunnerConfig, a attempt, fn func(context.Context) error) (err error) {
	obs.RunAttempts.Inc()
	span := obs.StartSpan("run-attempt", "runner",
		"technique", a.technique,
		"seed", a.seedHex(),
		"cell", a.cell,
		"members", strconv.Itoa(a.members),
		"riders", strconv.Itoa(a.riders))
	defer func() {
		outcome := "ok"
		switch {
		case err == nil:
		case errors.Is(err, ErrStalled):
			outcome = "stalled"
		case errors.As(err, new(*PanicError)):
			outcome = "panic"
		default:
			outcome = "err"
		}
		span.End("outcome", outcome)
	}()
	runCtx := ctx
	if rc.PerRunTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, rc.PerRunTimeout*time.Duration(a.members))
		defer cancel()
	}
	var stalled atomic.Bool
	if rc.StallTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(runCtx)
		defer cancel()
		hb := &Heartbeat{}
		runCtx = WithHeartbeat(runCtx, hb)
		stop := make(chan struct{})
		defer close(stop)
		go watchdog(hb, rc.StallTimeout, &stalled, cancel, stop)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
			obs.RunPanics.Inc()
			obs.Emit("run-panic",
				"seed", a.seedHex(),
				"technique", a.technique,
				"value", fmt.Sprint(r))
		}
	}()
	err = fn(runCtx)
	switch {
	case err != nil && stalled.Load():
		// The stall watchdog cancelled this attempt: classify apart from
		// both deadline overruns and sweep-level cancellation so the
		// retry policy (and the campaign scheduler's failure accounting)
		// can treat a wedge as transient.
		err = fmt.Errorf("%w (no heartbeat within %s): %w", ErrStalled, rc.StallTimeout, err)
		obs.RunStalls.Inc()
		obs.Emit("run-stall",
			"seed", a.seedHex(),
			"technique", a.technique,
			"stall_timeout", rc.StallTimeout.String())
	case err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The per-run deadline fired, not the sweep's context: the run is
		// deterministic, so a retry would overrun again.
		err = permanent(err)
	}
	return err
}

// retriable reports whether a failure is worth another attempt: panics,
// stalls and unmarked errors are retried; permanent marks and
// sweep-level cancellation are not.
func retriable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, ErrStalled) {
		return true
	}
	if errors.Is(err, ErrPermanent) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Do executes an arbitrary workload under the runner config's hardening:
// the shared Gate (when set), per-run deadline, panic recovery, and
// retry-with-backoff for transient failures. It is the probe-cell
// counterpart of RunSeedsCtx — campaign probe cells (flooding,
// vulnerability, latency, ...) get the exact semantics seed sweeps get,
// from the same machinery.
func (rc RunnerConfig) Do(ctx context.Context, fn func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !acquireGate(ctx, rc.Gate) {
		return ctx.Err()
	}
	defer releaseGate(rc.Gate)
	_, err := runWithRetry(ctx, rc, attempt{members: 1}, fn)
	return err
}

// acquireGate takes one token from the shared concurrency gate (a nil
// gate always admits); it reports false when ctx is done first.
func acquireGate(ctx context.Context, gate chan struct{}) bool {
	if gate == nil {
		return true
	}
	select {
	case gate <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func releaseGate(gate chan struct{}) {
	if gate != nil {
		<-gate
	}
}

// sleepCtx waits d or until ctx is done; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
