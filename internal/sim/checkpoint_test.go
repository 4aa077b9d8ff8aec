package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tivapromi/internal/faults"
)

func newTestCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	ck, err := LoadCheckpoint(filepath.Join(t.TempDir(), "sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Technique: "PARA", Seed: 0x42, Flips: 3, TotalActs: 100}
	if err := ck.record("fp", 0x42, res); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutOutput("table1", "rendered text"); err != nil {
		t.Fatal(err)
	}

	// A fresh load sees both the result and the cached output.
	ck2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ck2.lookup("fp", 0x42)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("lookup = %+v, %v; want %+v, true", got, ok, res)
	}
	if text, ok := ck2.Output("table1"); !ok || text != "rendered text" {
		t.Fatalf("Output = %q, %v", text, ok)
	}
	if _, ok := ck2.lookup("fp", 0x43); ok {
		t.Fatal("phantom seed present")
	}
	if _, ok := ck2.lookup("other", 0x42); ok {
		t.Fatal("fingerprint isolation violated")
	}
}

func TestCheckpointCorruptFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.lookup("fp", 1); ok {
		t.Fatal("corrupt checkpoint produced data")
	}
}

func TestNilCheckpointIsNoop(t *testing.T) {
	var ck *Checkpoint
	if err := ck.record("fp", 1, Result{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.lookup("fp", 1); ok {
		t.Fatal("nil checkpoint returned data")
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if ck.Path() != "" {
		t.Fatal("nil checkpoint has a path")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := fastConfig()
	seeds := []uint64{1, 2, 3}
	base := Fingerprint(cfg, "PARA", seeds)

	if Fingerprint(cfg, "TWiCe", seeds) == base {
		t.Fatal("technique not fingerprinted")
	}
	c2 := cfg
	c2.Windows++
	if Fingerprint(c2, "PARA", seeds) == base {
		t.Fatal("config not fingerprinted")
	}
	if Fingerprint(cfg, "PARA", []uint64{1, 2}) == base {
		t.Fatal("seed set not fingerprinted")
	}
	// Seed order is canonicalized: the sweep covers a set.
	if Fingerprint(cfg, "PARA", []uint64{3, 1, 2}) != base {
		t.Fatal("seed order changed the fingerprint")
	}
	// FactoryLabel stands in for the uncomparable Factory func.
	c3 := cfg
	c3.FactoryLabel = "hist=64"
	if Fingerprint(c3, "PARA", seeds) == base {
		t.Fatal("factory label not fingerprinted")
	}
}

// TestWiderSweepReusesSeeds: the checkpoint keys a sweep member's
// results by run (config, technique, seed), not by the sweep's seed
// list, so widening a sweep from 2 to 3 seeds over the same checkpoint
// simulates only the new seed, and the wider summary equals a fresh
// 3-seed sweep's.
func TestWiderSweepReusesSeeds(t *testing.T) {
	cfg := shrunkenConfig()
	techs := []string{"PARA", "LoLiPRoMi"}
	path := filepath.Join(t.TempDir(), "ck.json")
	var runs atomic.Int64
	sweep := func(ck *Checkpoint, tech string, seeds []uint64) Summary {
		r := NewRunner()
		r.Checkpoint = ck
		r.Config.SetRunFnForTest(func(ctx context.Context, c Config, tech string) (Result, error) {
			runs.Add(1)
			return RunCtx(ctx, c, tech)
		})
		sum, runErrs, err := r.RunSeeds(context.Background(), cfg, tech, seeds)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("%s: err=%v runErrs=%v", tech, err, runErrs)
		}
		return sum
	}
	load := func() *Checkpoint {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	for _, tech := range techs {
		sweep(load(), tech, Seeds(5, 2))
	}
	runs.Store(0)
	for _, tech := range techs {
		wide := sweep(load(), tech, Seeds(5, 3))
		if n := runs.Swap(0); n != 1 {
			t.Errorf("%s: widening 2 seeds to 3 ran %d simulations, want 1", tech, n)
		}
		if fresh := sweep(nil, tech, Seeds(5, 3)); !reflect.DeepEqual(wide, fresh) {
			t.Errorf("%s: widened summary diverged from a fresh sweep:\nwide  %+v\nfresh %+v", tech, wide, fresh)
		}
		runs.Store(0)
	}
}

// TestCheckpointMissesChangedRun: per-run keys still cover everything
// a result depends on, so a changed config field, factory label or
// technique never hits another run's entry.
func TestCheckpointMissesChangedRun(t *testing.T) {
	ck := newTestCheckpoint(t)
	var runs atomic.Int64
	r := NewRunner()
	r.Checkpoint = ck
	r.Config.SetRunFnForTest(func(_ context.Context, c Config, _ string) (Result, error) {
		runs.Add(1)
		return Result{Seed: c.Seed, TotalActs: 10}, nil
	})
	cfg := fastConfig()
	seeds := Seeds(1, 2)
	if _, _, err := r.RunSeeds(context.Background(), cfg, "PARA", seeds); err != nil {
		t.Fatal(err)
	}
	windows, labelled := cfg, cfg
	windows.Windows++
	labelled.FactoryLabel = "hist=64"
	for name, c := range map[string]struct {
		cfg  Config
		tech string
	}{
		"config":    {windows, "PARA"},
		"label":     {labelled, "PARA"},
		"technique": {cfg, "TWiCe"},
	} {
		runs.Store(0)
		hits := ck.CacheStats().SweepHits
		if _, _, err := r.RunSeeds(context.Background(), c.cfg, c.tech, seeds); err != nil {
			t.Fatal(err)
		}
		if got := ck.CacheStats().SweepHits - hits; got != 0 || runs.Load() != int64(len(seeds)) {
			t.Errorf("changed %s: %d cache hits, %d runs; want 0 hits, %d runs", name, got, runs.Load(), len(seeds))
		}
	}
}

func TestRunnerResumeSkipsCompletedSeeds(t *testing.T) {
	ck := newTestCheckpoint(t)
	var calls atomic.Int64
	mkRunner := func() *Runner {
		r := NewRunner()
		r.Checkpoint = ck
		r.Config.runFn = func(_ context.Context, c Config, _ string) (Result, error) {
			calls.Add(1)
			return Result{Seed: c.Seed, Flips: int(c.Seed), TotalActs: 10}, nil
		}
		return r
	}
	cfg := fastConfig()
	seeds := Seeds(1, 6)

	first, runErrs, err := mkRunner().RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("err=%v runErrs=%v", err, runErrs)
	}
	if calls.Load() != int64(len(seeds)) {
		t.Fatalf("first pass ran %d sims, want %d", calls.Load(), len(seeds))
	}

	// Second pass over the same checkpoint re-runs nothing and reproduces
	// the summary exactly.
	second, runErrs, err := mkRunner().RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("resume: err=%v runErrs=%v", err, runErrs)
	}
	if calls.Load() != int64(len(seeds)) {
		t.Fatalf("resume re-ran sims: %d calls total", calls.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("resumed summary diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

func TestRunnerResumeAfterKillByteIdentical(t *testing.T) {
	// A sweep killed partway (cancellation) leaves its completed seeds in
	// the checkpoint; resuming finishes the rest, and the final summary is
	// identical to an uninterrupted run.
	cfg := fastConfig()
	seeds := Seeds(11, 6)
	path := filepath.Join(t.TempDir(), "ck.json")

	simulate := func(_ context.Context, c Config, _ string) (Result, error) {
		return Result{Seed: c.Seed, Flips: int(c.Seed % 3), TotalActs: 100, ExtraActs: c.Seed % 7}, nil
	}

	// Uninterrupted reference.
	ref := NewRunner()
	ref.Config.runFn = simulate
	want, _, err := ref.RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1: cancel after three seeds complete.
	ck1, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	killed := NewRunner()
	killed.Config.Workers = 1
	killed.Checkpoint = ck1
	killed.Config.runFn = func(ctx context.Context, c Config, tech string) (Result, error) {
		if done.Add(1) > 3 {
			cancel()
			return Result{}, ctx.Err()
		}
		return simulate(ctx, c, tech)
	}
	_, runErrs, err := killed.RunSeeds(ctx, cfg, "PARA", seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) == 0 {
		t.Fatal("killed sweep reported no failures")
	}

	// Pass 2: a fresh process resumes from the file on disk.
	ck2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var resumed atomic.Int64
	res := NewRunner()
	res.Checkpoint = ck2
	res.Config.runFn = func(ctx context.Context, c Config, tech string) (Result, error) {
		resumed.Add(1)
		return simulate(ctx, c, tech)
	}
	got, runErrs, err := res.RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("resume: err=%v runErrs=%v", err, runErrs)
	}
	if n := resumed.Load(); n == 0 || n >= int64(len(seeds)) {
		t.Fatalf("resume ran %d seeds, want 0 < n < %d", n, len(seeds))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed summary != uninterrupted summary:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunnerCheckpointRealSimulation(t *testing.T) {
	// Checkpointed results survive the JSON round trip with full fidelity
	// for a real simulation (all Result fields are exported).
	cfg := fastConfig()
	seeds := Seeds(21, 2)
	path := filepath.Join(t.TempDir(), "ck.json")

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.Checkpoint = ck
	want, runErrs, err := r.RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("err=%v runErrs=%v", err, runErrs)
	}

	ck2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner()
	r2.Checkpoint = ck2
	r2.Config.runFn = func(context.Context, Config, string) (Result, error) {
		return Result{}, errors.New("must not re-run")
	}
	got, runErrs, err := r2.RunSeeds(context.Background(), cfg, "PARA", seeds)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("resume: err=%v runErrs=%v", err, runErrs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-tripped summary diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunnerUnwritableCheckpointSurfaces(t *testing.T) {
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if f, err := os.CreateTemp(dir, "probe"); err == nil {
		// Running as root (CI containers): read-only dirs aren't enforced.
		f.Close()
		t.Skip("directory permissions not enforced for this user")
	}
	ck, err := LoadCheckpoint(filepath.Join(dir, "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.Checkpoint = ck
	r.Config.runFn = func(_ context.Context, c Config, _ string) (Result, error) {
		return Result{Seed: c.Seed}, nil
	}
	if _, _, err := r.RunSeeds(context.Background(), fastConfig(), "PARA", []uint64{1}); err == nil {
		t.Fatal("unwritable checkpoint directory not surfaced")
	}
}

func TestCheckpointFlushEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.FlushEvery = 3
	for s := uint64(1); s <= 2; s++ {
		if err := ck.record("fp", s, Result{Seed: s}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint flushed before FlushEvery results accumulated")
	}
	if err := ck.record("fp", 3, Result{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint missing after FlushEvery results: %v", err)
	}
	// Flush is idempotent and cheap when clean.
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerDeadlinePropagation(t *testing.T) {
	// Per-run timeouts flow through the checkpointed runner unchanged.
	r := NewRunner()
	r.Config.PerRunTimeout = time.Millisecond
	r.Config.runFn = func(ctx context.Context, _ Config, _ string) (Result, error) {
		<-ctx.Done()
		return Result{}, ctx.Err()
	}
	_, runErrs, err := r.RunSeeds(context.Background(), fastConfig(), "PARA", []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 1 || !errors.Is(runErrs[0], ErrPermanent) {
		t.Fatalf("runErrs = %v, want one permanent timeout", runErrs)
	}
}

func TestFaultSweepGridShape(t *testing.T) {
	r := NewRunner()
	r.Config.runFn = func(_ context.Context, c Config, tech string) (Result, error) {
		return Result{Technique: tech, Seed: c.Seed, TotalActs: 100,
			Flips: int(uint64(c.Fault.Model)) /* distinguish models */}, nil
	}
	sc := FaultSweepConfig{
		Base:       fastConfig(),
		Techniques: []string{"PARA", "TWiCe"},
		Models:     allFaultModels(),
		Rates:      []float64{0.1, 0.2},
		Seeds:      []uint64{1, 2},
	}
	pts, err := FaultSweep(context.Background(), r, sc)
	if err != nil {
		t.Fatal(err)
	}
	// None contributes 1 point per technique, others 2 (rates).
	want := 2 * (1 + (len(sc.Models)-1)*2)
	if len(pts) != want {
		t.Fatalf("grid has %d points, want %d", len(pts), want)
	}
	if pts[0].Technique != "PARA" || pts[0].Rate != 0 {
		t.Fatalf("first point %+v, want PARA baseline", pts[0])
	}
}

func TestFaultSweepValidation(t *testing.T) {
	if _, err := FaultSweep(context.Background(), nil, FaultSweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	// Two identical sweeps over the real simulator must emit identical
	// tables (the acceptance criterion for the degradation experiment).
	if testing.Short() {
		t.Skip("real simulation sweep")
	}
	cfg := fastConfig()
	cfg.Windows = 1
	sc := FaultSweepConfig{
		Base:       cfg,
		Techniques: []string{"PARA"},
		Models:     allFaultModels()[:3],
		Rates:      []float64{0.01},
		Seeds:      []uint64{1},
		FaultSeed:  7,
	}
	a, err := FaultSweep(context.Background(), nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(context.Background(), nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault sweep not deterministic:\n a %+v\n b %+v", a, b)
	}
}

func BenchmarkRunSeedsCtx(b *testing.B) {
	cfg := fastConfig()
	seeds := Seeds(1, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunSeedsCtx(context.Background(), DefaultRunnerConfig(), cfg, "PARA", seeds); err != nil {
			b.Fatal(err)
		}
	}
}

// allFaultModels returns None followed by every injecting model, matching
// the presentation order of a degradation table.
func allFaultModels() []faults.Model {
	return append([]faults.Model{faults.None}, faults.Models()...)
}
