package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tivapromi/internal/serve"
	"tivapromi/internal/servetest"
)

// serveCmd runs the multi-tenant campaign server until sigCtx dies
// (SIGINT/SIGTERM), then winds it down in order: drain the campaign
// server first — admission closes, queued jobs are cancelled, in-flight
// jobs get cfg.DrainTimeout to finish or reach the checkpoint — then
// shut the HTTP listener down, then hard-stop whatever survived the
// grace. The server's own lifetime is deliberately NOT the signal
// context: jobs must keep running while the drain completes them.
func (a *app) serveCmd(sigCtx context.Context, addr string, cfg serve.Config) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "serve: listening on %s (workers=%d queue-depth=%d checkpoint=%q)\n",
		ln.Addr(), cfg.Workers, cfg.QueueDepth, cfg.CheckpointPath)

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	select {
	case err := <-httpErr:
		// The listener died on its own (port stolen, fd limit, …) —
		// nothing to drain into, report it.
		return fmt.Errorf("serve: http server: %w", err)
	case <-sigCtx.Done():
	}
	fmt.Fprintln(a.stdout, "serve: signal received, draining")

	// Drain before Shutdown: status/event polls must keep answering
	// while in-flight jobs run out their grace.
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+30*time.Second)
	defer cancel()
	drainErr := srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(a.stdout, "serve: http server exit: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	fmt.Fprintln(a.stdout, "serve: drained cleanly")
	return nil
}

// serveChaos runs the crash-durability torture harness
// (internal/servetest.RunServeChaos) and prints its report: a journaled
// server hard-killed at a seeded commit ordinal, its journal
// tail torn, restarted, and held to the durability contract — every
// accepted job recovered and re-rendered byte-identically, idempotent
// re-POSTs answered with the original id and zero re-executions, and
// the SSE resume protocol honest across the incarnation boundary.
func (a *app) serveChaos(ctx context.Context, cfg servetest.ChaosConfig) error {
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "serve-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	rep, err := servetest.RunServeChaos(ctx, cfg)
	fmt.Fprintf(a.stdout, "serve-chaos: seed %#x: %d accepted, killed=%v at commit %d, tampered=%v, %d recovered, %d/%d reports identical, %d idempotent replay(s), %d re-execution(s), snapshot-fallback=%v resume-checked=%v, %d corpse(s), %d leaked goroutine(s)\n",
		cfg.Seed, rep.Submitted, rep.Killed, rep.KillOrdinal, rep.Tampered,
		rep.Recovered, rep.Compared, rep.Submitted, rep.IdempotentReplays,
		rep.ReExecutions, rep.SnapshotFallback, rep.ResumeChecked,
		rep.Corpses, rep.LeakedGoroutines)
	if err != nil {
		return err
	}
	if err := rep.Check(); err != nil {
		return err
	}
	fmt.Fprintln(a.stdout, "serve-chaos: crash-durability contract holds")
	return nil
}
