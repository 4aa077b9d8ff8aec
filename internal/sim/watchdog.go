package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"tivapromi/internal/rng"
)

// ErrStalled marks a run that was cancelled by the stall watchdog: the
// workload had been reporting progress heartbeats and then stopped for
// longer than RunnerConfig.StallTimeout. A stall is classified
// separately from a per-run deadline overrun (which is permanent: a
// deterministic run that overruns its budget will overrun again) —
// a stall is usually a scheduling wedge or a livelock in one attempt,
// so it is retried as transient.
var ErrStalled = errors.New("sim: run stalled (heartbeat stopped)")

// Heartbeat is the progress channel between a running workload and the
// stall watchdog. The workload calls Tick whenever it makes forward
// progress (RunCtx ticks every 1024 accesses);
// the watchdog cancels the run when ticks stop. All methods are safe
// for concurrent use and a nil *Heartbeat ignores every call.
type Heartbeat struct {
	ticks atomic.Int64
	last  atomic.Int64 // unix nanos of the latest tick
}

// Tick records forward progress.
func (h *Heartbeat) Tick() {
	if h == nil {
		return
	}
	h.last.Store(time.Now().UnixNano())
	h.ticks.Add(1)
}

// Ticks returns the number of ticks recorded so far.
func (h *Heartbeat) Ticks() int64 {
	if h == nil {
		return 0
	}
	return h.ticks.Load()
}

// lastTick returns the time of the latest tick (zero time when none).
func (h *Heartbeat) lastTick() time.Time {
	n := h.last.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// heartbeatKey is the context key WithHeartbeat installs under.
type heartbeatKey struct{}

// WithHeartbeat returns a context carrying hb; workloads running under
// the hardened runner receive their heartbeat this way.
func WithHeartbeat(ctx context.Context, hb *Heartbeat) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, hb)
}

// HeartbeatFrom extracts the run's heartbeat from ctx (nil when the
// runner did not arm a stall watchdog). Long-running probe loops should
// call HeartbeatFrom(ctx).Tick() per iteration — a nil heartbeat
// ignores ticks, so the call is unconditionally safe.
func HeartbeatFrom(ctx context.Context) *Heartbeat {
	hb, _ := ctx.Value(heartbeatKey{}).(*Heartbeat)
	return hb
}

// watchdog polls hb and cancels the run when the gap since the last
// tick exceeds timeout. A workload that never ticks is exempt: the
// watchdog cannot distinguish a wedge from a workload that simply does
// not report, so it only judges runs that have demonstrated heartbeat
// cooperation (the per-run deadline still bounds silent workloads).
// stop tears the watchdog down when the run returns on its own.
func watchdog(hb *Heartbeat, timeout time.Duration, stalled *atomic.Bool, cancel context.CancelFunc, stop <-chan struct{}) {
	poll := timeout / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if hb.Ticks() == 0 {
				continue
			}
			if now.Sub(hb.lastTick()) > timeout {
				stalled.Store(true)
				cancel()
				return
			}
		}
	}
}

// RetryJitter produces decorrelated-jitter retry delays ("sleep =
// min(cap, base + rand(0, 3·prev − base))") from a seeded deterministic
// stream. Unlike the plain exponential doubling it replaces, two
// workers that fail at the same instant draw different sleeps (their
// seeds differ), so retry storms don't resynchronize on every attempt —
// while a given seed still reproduces the exact same schedule, keeping
// tests and reruns deterministic.
type RetryJitter struct {
	src  *rng.XorShift64Star
	base time.Duration
	max  time.Duration
	prev time.Duration
}

// NewRetryJitter returns a jitter source with the given base delay,
// cap (0 means 64×base) and seed.
func NewRetryJitter(base, max time.Duration, seed uint64) *RetryJitter {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = 64 * base
	}
	if max < base {
		max = base
	}
	return &RetryJitter{
		src:  rng.NewXorShift64Star(seed ^ 0xb0ff5),
		base: base,
		max:  max,
		prev: base,
	}
}

// Next returns the next sleep in the decorrelated schedule.
func (j *RetryJitter) Next() time.Duration {
	span := 3*j.prev - j.base
	if span < j.base {
		span = j.base
	}
	d := j.base + time.Duration(rng.Intn(j.src, int(span)))
	if d > j.max {
		d = j.max
	}
	j.prev = d
	return d
}
