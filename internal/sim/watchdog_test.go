package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		j := NewRetryJitter(10*time.Millisecond, 0, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = j.Next()
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules — jitter is not decorrelating")
	}
}

func TestRetryJitterRespectsBounds(t *testing.T) {
	base, cap := 5*time.Millisecond, 40*time.Millisecond
	j := NewRetryJitter(base, cap, 7)
	for i := 0; i < 100; i++ {
		d := j.Next()
		if d < base || d > cap {
			t.Fatalf("step %d: delay %v outside [%v, %v]", i, d, base, cap)
		}
	}
}

func TestRetryJitterDefaults(t *testing.T) {
	j := NewRetryJitter(0, 0, 1)
	if d := j.Next(); d < 10*time.Millisecond || d > 640*time.Millisecond {
		t.Fatalf("defaulted jitter produced %v, want within [10ms, 64×10ms]", d)
	}
}

// TestRunnerBackoffDesyncAcrossSeeds pins the satellite fix: two seeds
// failing in lockstep must not share a retry schedule (the old
// deterministic doubling gave every worker the same sleeps).
func TestRunnerBackoffDesyncAcrossSeeds(t *testing.T) {
	rc := DefaultRunnerConfig()
	j1, j2 := rc.jitter(1), rc.jitter(2)
	diverged := false
	for i := 0; i < 8; i++ {
		if j1.Next() != j2.Next() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("per-seed retry schedules are identical")
	}
}

func TestHeartbeatNilSafe(t *testing.T) {
	var hb *Heartbeat
	hb.Tick() // must not panic
	if hb.Ticks() != 0 {
		t.Fatal("nil heartbeat reported ticks")
	}
	if got := HeartbeatFrom(context.Background()); got != nil {
		t.Fatalf("bare context produced a heartbeat: %v", got)
	}
}

// TestStallWatchdogCancelsAndRetries wedges the first attempt after one
// heartbeat tick: the watchdog must cancel it, the failure must classify
// as ErrStalled (transient), and the retry must succeed.
func TestStallWatchdogCancelsAndRetries(t *testing.T) {
	var attempts atomic.Int64
	rc := stubRunner(func(ctx context.Context, c Config, _ string) (Result, error) {
		if attempts.Add(1) == 1 {
			hb := HeartbeatFrom(ctx)
			if hb == nil {
				return Result{}, errors.New("no heartbeat in context")
			}
			hb.Tick()
			<-ctx.Done() // wedge: no further ticks until cancelled
			return Result{}, ctx.Err()
		}
		return Result{Seed: c.Seed}, nil
	})
	rc.Retries = 2
	rc.StallTimeout = 30 * time.Millisecond
	sum, runErrs, err := RunSeedsCtx(context.Background(), rc, fastConfig(), "", []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 0 {
		t.Fatalf("stalled attempt was not retried to success: %v", runErrs)
	}
	if len(sum.Runs) != 1 || attempts.Load() != 2 {
		t.Fatalf("runs=%d attempts=%d, want 1 run after 2 attempts", len(sum.Runs), attempts.Load())
	}
}

// TestStallErrorSurfacesWhenRetriesExhausted pins the classification: a
// run that keeps stalling reports ErrStalled, not a bare cancellation.
func TestStallErrorSurfacesWhenRetriesExhausted(t *testing.T) {
	rc := stubRunner(func(ctx context.Context, _ Config, _ string) (Result, error) {
		HeartbeatFrom(ctx).Tick()
		<-ctx.Done()
		return Result{}, ctx.Err()
	})
	rc.Retries = 1
	rc.StallTimeout = 20 * time.Millisecond
	_, runErrs, err := RunSeedsCtx(context.Background(), rc, fastConfig(), "", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 1 {
		t.Fatalf("got %d run errors, want 1", len(runErrs))
	}
	if !errors.Is(runErrs[0], ErrStalled) {
		t.Fatalf("error %v is not ErrStalled", runErrs[0])
	}
	if runErrs[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (stalls are transient)", runErrs[0].Attempts)
	}
}

// TestNeverTickingWorkloadExemptFromWatchdog pins the exemption: a
// workload that never reports progress cannot be distinguished from a
// wedge, so the watchdog must not judge it.
func TestNeverTickingWorkloadExemptFromWatchdog(t *testing.T) {
	rc := stubRunner(func(ctx context.Context, c Config, _ string) (Result, error) {
		select {
		case <-time.After(80 * time.Millisecond): // 4× the stall timeout, zero ticks
			return Result{Seed: c.Seed}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	})
	rc.StallTimeout = 20 * time.Millisecond
	sum, runErrs, err := RunSeedsCtx(context.Background(), rc, fastConfig(), "", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 0 {
		t.Fatalf("silent workload was judged by the watchdog: %v", runErrs)
	}
	if len(sum.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(sum.Runs))
	}
}

// TestRealSimulationTicksHeartbeat checks the production wiring: a real
// run under a stall watchdog ticks (and therefore finishes,
// because it genuinely progresses).
func TestRealSimulationTicksHeartbeat(t *testing.T) {
	hb := &Heartbeat{}
	ctx := WithHeartbeat(context.Background(), hb)
	cfg := fastConfig()
	if _, err := RunCtx(ctx, cfg, "PARA"); err != nil {
		t.Fatal(err)
	}
	if hb.Ticks() == 0 {
		t.Fatal("simulation never ticked its heartbeat")
	}

	// The latency probe ticks once per refresh interval.
	hb = &Heartbeat{}
	cfg = shrunkenConfig()
	if _, err := LatencyProbeCtx(WithHeartbeat(context.Background(), hb), cfg, "PARA"); err != nil {
		t.Fatal(err)
	}
	if got := hb.Ticks(); got < int64(cfg.Params.RefInt) {
		t.Fatalf("latency probe ticked %d times over %d refresh intervals", got, cfg.Params.RefInt)
	}
}

// cancelOnTick reports its context cancelled once the heartbeat has
// ticked: a cancellation arriving from inside the first heartbeat.
type cancelOnTick struct {
	context.Context
	hb *Heartbeat
}

func (c cancelOnTick) Err() error {
	if c.hb.Ticks() > 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestLatencyProbeHonorsCancellation checks the probe stops between
// refresh intervals instead of finishing its window.
func TestLatencyProbeHonorsCancellation(t *testing.T) {
	hb := &Heartbeat{}
	ctx := cancelOnTick{WithHeartbeat(context.Background(), hb), hb}
	_, err := LatencyProbeCtx(ctx, shrunkenConfig(), "LoLiPRoMi")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := hb.Ticks(); got != 1 {
		t.Fatalf("probe ran %d intervals past the cancellation", got-1)
	}
}
