package chaostest

import (
	"context"
	"testing"
)

// TestTortureRunByteIdentical is the harness's own acceptance test: a
// short kill/corrupt/resume torture run must converge to the undisturbed
// report, byte for byte.
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
	if rep.Kills == 0 {
		t.Fatal("no cycle was killed: the torture ran nothing but clean passes")
	}
	if !rep.Identical {
		t.Fatal("final resumed report is not byte-identical to the golden run")
	}
	if rep.GoldenBytes == 0 {
		t.Fatal("golden report is empty")
	}
	if rep.Corruptions == 0 {
		t.Fatal("corrupting torture run flipped no bytes")
	}
	// The deliberate byte flips alone guarantee quarantined corpses.
	if rep.Quarantined == 0 {
		t.Fatal("corruption left no quarantined checkpoint behind")
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
