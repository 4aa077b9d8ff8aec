package servetest

import (
	"context"
	"testing"
)

// TestServeChaosCrashDurable is the acceptance test for the durable
// serving core: a journaled server hard-killed at a seeded
// commit ordinal (with a torn tail appended for good measure)
// must come back remembering everything — every accepted job
// re-admitted and re-rendered byte-identically, duplicate
// Idempotency-Key POSTs answered with the original id and zero new
// executions, pre-crash SSE resume tokens refused with a snapshot,
// current-epoch tokens resumed without one, quarantine bounded, and no
// goroutine left behind.
func TestServeChaosCrashDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("serve-chaos torture run in -short mode")
	}
	rep, err := RunServeChaos(context.Background(), ChaosConfig{
		Seed: 7,
		Dir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if !rep.Tampered {
		t.Error("the torn-tail tamper never landed; salvage went unexercised")
	}
}
