package chaostest

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"tivapromi/internal/iofault"
	"tivapromi/internal/rng"
)

// TestTortureRunByteIdentical is the campaign protocol's acceptance
// test: a short kill/corrupt/resume torture run must converge to the
// undisturbed report, byte for byte, and hold the rest of the contract.
func TestTortureRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run in -short mode")
	}
	rep, err := Run(context.Background(), Config{
		Seed:    7,
		Cycles:  2,
		Corrupt: true,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 2 {
		t.Fatalf("cycles = %d, want 2", rep.Cycles)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTortureRunKillScheduleReproducible pins what the harness promises
// across same-seed runs: the kill schedule and the end state. (The exact
// fault tally is NOT pinned — campaign workers race the kill switch, so
// the number of I/O operations reaching the chaos filesystem before the
// cancel lands varies; per-operation fault determinism is pinned in
// internal/iofault instead.)
func TestTortureRunKillScheduleReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run in -short mode")
	}
	run := func() Report {
		rep, err := Run(context.Background(), Config{
			Seed: 21, Cycles: 1, Corrupt: false, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Kills != b.Kills || a.Cycles != b.Cycles {
		t.Fatalf("same seed, different kill schedules:\n%+v\n%+v", a, b)
	}
	if a.GoldenBytes != b.GoldenBytes {
		t.Fatalf("golden runs disagree: %d vs %d bytes", a.GoldenBytes, b.GoldenBytes)
	}
	if !a.Identical || !b.Identical {
		t.Fatal("non-corrupting torture run failed byte identity")
	}
}

func TestChaosOddsSeeded(t *testing.T) {
	if ChaosOdds(1).Seed != 1 || ChaosOdds(9).Seed != 9 {
		t.Fatal("ChaosOdds does not thread the cycle seed")
	}
}

// TestKillSwitch drives commits on a synthetic chaos filesystem — an
// honest append sync is one commit, a failed rename one injected fault —
// and pins the three rules arm covers: fire at the first commit ≥ at,
// with afterFault wait for a fault first, and with powerOff refuse every
// later write.
func TestKillSwitch(t *testing.T) {
	setup := func(t *testing.T, at int, afterFault, powerOff bool) (<-chan struct{}, func() error, func()) {
		dir := t.TempDir()
		fs := iofault.NewChaos(nil, iofault.ChaosConfig{Seed: 3, RenameFail: 1})
		kill := arm(fs, at, afterFault, powerOff)
		f, err := fs.OpenAppend(filepath.Join(dir, "log"))
		if err != nil {
			t.Fatal(err)
		}
		commit := func() error {
			if _, err := f.Write([]byte("rec\n")); err != nil {
				return err
			}
			return f.Sync()
		}
		fault := func() {
			if err := fs.Rename(filepath.Join(dir, "log"), filepath.Join(dir, "moved")); !errors.Is(err, iofault.ErrInjectedIO) {
				t.Fatalf("rename under RenameFail=1: %v", err)
			}
		}
		return kill, commit, fault
	}
	// step commits once and checks whether the switch has fired.
	step := func(t *testing.T, kill <-chan struct{}, commit func() error, n int, want bool) {
		t.Helper()
		if err := commit(); err != nil {
			t.Fatalf("commit %d: %v", n, err)
		}
		if got := fired(kill); got != want {
			t.Fatalf("after commit %d: fired = %v, want %v", n, got, want)
		}
	}

	t.Run("at", func(t *testing.T) {
		kill, commit, _ := setup(t, 3, false, false)
		step(t, kill, commit, 1, false)
		step(t, kill, commit, 2, false)
		step(t, kill, commit, 3, true)
		step(t, kill, commit, 4, true)
	})
	t.Run("afterFault", func(t *testing.T) {
		kill, commit, fault := setup(t, 2, true, false)
		for n := 1; n <= 3; n++ {
			step(t, kill, commit, n, false)
		}
		fault()
		if fired(kill) {
			t.Fatal("a fault that is not a commit fired the switch")
		}
		step(t, kill, commit, 4, true)
	})
	t.Run("powerOff", func(t *testing.T) {
		kill, commit, _ := setup(t, 2, false, true)
		step(t, kill, commit, 1, false)
		step(t, kill, commit, 2, true)
		for n := 3; n <= 4; n++ {
			if err := commit(); !errors.Is(err, iofault.ErrPoweredOff) {
				t.Fatalf("write after the power-off: %v, want ErrPoweredOff", err)
			}
		}
	})
}

// TestFlipByteErrors: a missing checkpoint is neither a flip nor an
// error (a cycle may die before its first commit); any other read
// failure is an error Run surfaces.
func TestFlipByteErrors(t *testing.T) {
	dir := t.TempDir()
	src := rng.NewXorShift64Star(1)
	if flipped, err := flipByte(filepath.Join(dir, "missing"), src); flipped || err != nil {
		t.Fatalf("missing checkpoint: flipped=%v err=%v", flipped, err)
	}
	if _, err := flipByte(dir, src); err == nil {
		t.Fatal("a directory in the checkpoint's place read without error")
	}
}

// TestChecksRefuseBrokenContracts breaks one clause of each protocol's
// contract on an otherwise passing report: every one must fail Check,
// which is what makes the CLI's exit code mean the contract held.
func TestChecksRefuseBrokenContracts(t *testing.T) {
	campaign := Report{Cycles: 3, Kills: 3, Corrupt: true, Corruptions: 3, Quarantined: 2, GoldenBytes: 100, Identical: true}
	served := ServeReport{
		SubmittedChaos: 4, SubmittedClean: 2 * tenants, Killed: true,
		Faults: iofault.ChaosStats{TornWrites: 1}, Rejected429: 2, RetryAfterSeen: true,
		DedupHits: 5, Compared: 8, Identical: true, HeapAllocBytes: 1 << 20,
	}
	durable := ServeChaosReport{
		Submitted: 4, Killed: true, KillOrdinal: 3, Tampered: true, Recovered: 4,
		IdempotentReplays: 4, PreKillEventID: "1", SnapshotFallback: true, ResumeChecked: true,
		Compared: 4, Identical: true, Corpses: 1,
	}
	type checker interface{ Check() error }
	for name, c := range map[string]checker{"campaign": campaign, "serve": served, "serve-chaos": durable} {
		if err := c.Check(); err != nil {
			t.Fatalf("%s: passing report refused: %v", name, err)
		}
	}
	broken := map[string]checker{}
	for name, mut := range map[string]func(*Report){
		"no kills":           func(r *Report) { r.Kills = 0 },
		"not identical":      func(r *Report) { r.Identical = false },
		"empty golden":       func(r *Report) { r.GoldenBytes = 0 },
		"corrupt, no flips":  func(r *Report) { r.Corruptions = 0 },
		"corrupt, no corpse": func(r *Report) { r.Quarantined = 0 },
	} {
		r := campaign
		mut(&r)
		broken["campaign: "+name] = r
	}
	for name, mut := range map[string]func(*ServeReport){
		"not identical":  func(r *ServeReport) { r.Identical = false },
		"none compared":  func(r *ServeReport) { r.Compared = 0 },
		"short rounds":   func(r *ServeReport) { r.SubmittedClean = 7 },
		"no dedup":       func(r *ServeReport) { r.DedupHits = 0 },
		"no 429":         func(r *ServeReport) { r.Rejected429 = 0 },
		"no Retry-After": func(r *ServeReport) { r.RetryAfterSeen = false },
		"leak":           func(r *ServeReport) { r.LeakedGoroutines = 1 },
		"heap":           func(r *ServeReport) { r.HeapAllocBytes = heapBudget + 1 },
		"not killed":     func(r *ServeReport) { r.Killed = false },
		"no faults":      func(r *ServeReport) { r.Faults = iofault.ChaosStats{} },
	} {
		r := served
		mut(&r)
		broken["serve: "+name] = r
	}
	for name, mut := range map[string]func(*ServeChaosReport){
		"not tampered":    func(r *ServeChaosReport) { r.Tampered = false },
		"not killed":      func(r *ServeChaosReport) { r.Killed = false },
		"lost job":        func(r *ServeChaosReport) { r.Recovered = 3 },
		"not identical":   func(r *ServeChaosReport) { r.Identical = false },
		"missed replay":   func(r *ServeChaosReport) { r.IdempotentReplays = 3 },
		"re-executed":     func(r *ServeChaosReport) { r.ReExecutions = 1 },
		"aliased resume":  func(r *ServeChaosReport) { r.SnapshotFallback = false },
		"resume untested": func(r *ServeChaosReport) { r.ResumeChecked = false },
		"corpse pile":     func(r *ServeChaosReport) { r.Corpses = 99 },
		"leak":            func(r *ServeChaosReport) { r.LeakedGoroutines = 1 },
	} {
		r := durable
		mut(&r)
		broken["serve-chaos: "+name] = r
	}
	for name, c := range broken {
		if c.Check() == nil {
			t.Errorf("%s: Check passed a broken report", name)
		}
	}
}
