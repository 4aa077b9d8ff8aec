package chaostest

import (
	"context"
	"testing"
)

// TestServingTortureByteIdentical is the acceptance test for the whole
// serving stack: four concurrent tenants with overlapping campaigns, a
// chaos filesystem under the shared cache, one hard kill/restart cycle,
// then full convergence — the contract ServeReport.Check states.
func TestServingTortureByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("serving torture run in -short mode")
	}
	rep, err := RunServe(context.Background(), Config{Seed: 11, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestServeChaosCrashDurable is the acceptance test for the durable
// serving core: a journaled server powered off at a seeded commit
// ordinal, with a torn tail appended for good measure, must come back
// remembering everything — the contract ServeChaosReport.Check states.
func TestServeChaosCrashDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("serve-chaos torture run in -short mode")
	}
	rep, err := RunServeChaos(context.Background(), Config{Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}
