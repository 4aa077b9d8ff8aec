// Command experiments regenerates every table and figure of the paper's
// evaluation (Section IV):
//
//	experiments table1           — Table I: simulated system specification
//	experiments table2           — Table II: FSM cycles per act/ref command
//	experiments table3           — Table III: LUTs, vulnerability, overhead, FPR
//	experiments fig4             — Fig. 4: table size vs activation overhead
//	experiments flooding         — §IV: flooding attack, acts to first protection
//	experiments refreshpolicies  — §IV: the four refresh-address policies
//	experiments aggressors       — §IV: 1..20 aggressors per targeted bank
//	experiments ablation         — design-choice sweeps (table sizes, Pbase)
//	experiments extensions       — CAT / TRR / QuaPRoMi, beyond the paper
//	experiments latency          — request latency through the cycle-accurate scheduler
//	experiments thresholds       — flood-survival margins at modern flip thresholds
//	experiments faults           — degradation table: every mitigation under injected faults
//	experiments all              — everything above, as one merged campaign
//	experiments chaos            — crash-consistency torture: run a real
//	                               campaign against a fault-injecting
//	                               filesystem, kill it at randomized
//	                               checkpoint-commit boundaries, corrupt the
//	                               checkpoint between cycles, resume, and
//	                               verify the final report is byte-identical
//	                               to an undisturbed run
//	experiments serve            — long-running multi-tenant campaign server:
//	                               HTTP/JSON campaign submission, per-tenant
//	                               fair queuing and admission control over one
//	                               shared worker pool, SSE progress streams,
//	                               cross-tenant dedup through the -checkpoint
//	                               cache, write-ahead job journal via -journal
//	                               (idempotent submission, crash recovery),
//	                               graceful drain on SIGINT/SIGTERM
//	experiments serve-chaos      — crash-durability torture for the serving
//	                               layer: a journaled server is hard-killed
//	                               at a seeded commit ordinal, its
//	                               journal tail torn, then restarted — every
//	                               accepted job must be re-admitted and
//	                               re-rendered byte-identically, duplicate
//	                               Idempotency-Key POSTs answered with the
//	                               original id and zero re-executions, and
//	                               pre-crash SSE resume tokens refused with
//	                               a snapshot instead of silently aliased
//
// Every section is a campaign.Spec in the report.Sections registry; this
// command only merges the selected specs, runs them through the campaign
// scheduler (all sections' cells in parallel under one worker bound) and
// renders the results in section order — so the output is byte-identical
// whatever -workers says.
//
// Flags:
//
//	-seeds N          seeds per data point (default 5)
//	-windows N        refresh windows per run (default 4)
//	-trials N         flooding trials (default 25)
//	-paper            use the full Table I scale (slow) for the simulations
//	-csv              also print Fig. 4 as CSV
//	-svg PATH         also write Fig. 4 as an SVG file
//	-checkpoint PATH  persist per-seed and per-probe results to an
//	                  append-only JSONL checkpoint; a killed run re-uses
//	                  them on restart
//	-geometry RxGxBxROWS
//	                  override the device geometry as
//	                  ranks x bank-groups x banks x rows-per-bank
//	                  (e.g. 1x8x4x65536); geometries of >= 2M rows
//	                  automatically use the sparse per-row state
//	-resume           with -checkpoint: finish a killed run; every section
//	                  is re-rendered from the checkpointed results, and
//	                  nothing already on disk is simulated again
//	-workers N        bound the campaign's concurrent simulations (default
//	                  GOMAXPROCS)
//	-timeout D        per-run deadline for one simulation (0 = none)
//	-stall D          stall watchdog: cancel and retry a run whose progress
//	                  heartbeat goes silent for D (0 = off)
//	-retry-budget N   total cell-level re-attempts the campaign may spend on
//	                  transient failures (0 = none); cells that keep failing
//	                  trip a circuit breaker and are skipped, degrading the
//	                  report instead of aborting it
//	-progress         stream per-cell progress and ETA to stderr
//	-chaos-seed N     chaos: master seed for the torture schedule (default 1)
//	-chaos-cycles N   chaos: kill/resume cycles before the clean final run
//	                  (default 3)
//	-chaos-corrupt    chaos: also flip one checkpoint byte between cycles
//	                  (default true)
//	-addr HOST:PORT   serve: listen address (default :8077)
//	-queue-depth N    serve: per-tenant pending-job bound before 429s
//	                  (default 8)
//	-max-tenants N    serve: distinct-tenant bound (default 64)
//	-drain-timeout D  serve: grace given to in-flight jobs on shutdown
//	                  before they are force-cancelled (default 30s)
//	-journal PATH     serve: write-ahead job journal — every accepted
//	                  submission and state change is fsync'd here, so a
//	                  restarted server re-admits interrupted jobs and
//	                  answers duplicate Idempotency-Key POSTs with the
//	                  original job ("" = off)
//	-recover          serve: with -journal, re-run jobs interrupted by a
//	                  crash (default true; -recover=false fails them
//	                  typed instead, keeping only the idempotency ledger)
//	-metrics-out PATH write the process-wide metric registry (Prometheus
//	                  text exposition) to PATH at exit, on every exit
//	                  path — a failed run is exactly when the flight
//	                  recorder matters
//	-trace-out PATH   record spans (campaign cells, run attempts,
//	                  checkpoint flushes, serve jobs) and
//	                  write them as Chrome trace-event JSON to PATH at
//	                  exit; load it in Perfetto (ui.perfetto.dev) or
//	                  chrome://tracing
//	-pprof-addr HOST:PORT
//	                  serve net/http/pprof on a side listener for live
//	                  CPU/heap/goroutine profiles of any long run
//	-no-metrics       disable the sampled metric flushes (the driver's
//	                  one atomic add per member per 1024-access block);
//	                  mainly for A/B-ing obs overhead and the
//	                  determinism property test
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/chaostest"
	"tivapromi/internal/dram"
	"tivapromi/internal/obs"
	"tivapromi/internal/report"
	"tivapromi/internal/serve"
	"tivapromi/internal/servetest"
	"tivapromi/internal/sim"
)

var (
	seeds     = flag.Int("seeds", 5, "seeds per data point")
	windows   = flag.Int("windows", 4, "refresh windows per run")
	trials    = flag.Int("trials", 25, "flooding trials")
	paper     = flag.Bool("paper", false, "full Table I scale (slow)")
	csvOut    = flag.Bool("csv", false, "print Fig. 4 as CSV too")
	svgOut    = flag.String("svg", "", "also write Fig. 4 as an SVG file at this path")
	ckptPath  = flag.String("checkpoint", "", "JSON checkpoint path for resumable campaigns")
	resume    = flag.Bool("resume", false, "with -checkpoint: finish a killed run, re-rendering every section from the checkpoint")
	geomF     = flag.String("geometry", "", "device geometry ranks x groups x banks x rows, e.g. 1x8x4x65536")
	workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	timeout   = flag.Duration("timeout", 0, "per-run deadline for one simulation (0 = none)")
	stall     = flag.Duration("stall", 0, "stall watchdog: cancel+retry a run silent for this long (0 = off)")
	retryBudg = flag.Int("retry-budget", 0, "total cell-level re-attempts for transient failures (0 = none)")
	progress  = flag.Bool("progress", false, "stream per-cell progress to stderr")
	chSeed    = flag.Uint64("chaos-seed", 1, "chaos: master seed for the torture schedule")
	chCycles  = flag.Int("chaos-cycles", 3, "chaos: kill/resume cycles before the clean final run")
	chCorrupt = flag.Bool("chaos-corrupt", true, "chaos: flip one checkpoint byte between cycles")
	chDir     = flag.String("chaos-dir", "", "chaos: working directory (default: a fresh temp dir)")
	addr      = flag.String("addr", ":8077", "serve: listen address")
	queueDep  = flag.Int("queue-depth", 8, "serve: per-tenant pending-job bound before 429s")
	maxTen    = flag.Int("max-tenants", 64, "serve: distinct-tenant bound")
	drainTO   = flag.Duration("drain-timeout", 30*time.Second, "serve: in-flight grace on shutdown before force-cancel")
	journalF  = flag.String("journal", "", "serve: write-ahead job journal path for crash recovery and idempotent submission (\"\" = off)")
	recoverF  = flag.Bool("recover", true, "serve: with -journal, re-run jobs interrupted by a crash (false = fail them typed)")
	metricsF  = flag.String("metrics-out", "", "write the metric registry (Prometheus text) here at exit")
	traceF    = flag.String("trace-out", "", "record spans and write Chrome trace-event JSON here at exit")
	pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this side listener (e.g. localhost:6060)")
	noMetrics = flag.Bool("no-metrics", false, "disable the sampled metric flushes (obs A/B runs)")
)

// app binds one evaluation's knobs to its outputs. Tests construct it
// directly; main builds it from the flags.
type app struct {
	ev          campaign.Eval
	csv         bool
	svgPath     string
	workers     int
	retryBudget int
	runner      *sim.Runner
	stdout      io.Writer
	stderr      io.Writer // nil: degraded-run diagnostics are dropped
	progress    io.Writer // nil: no progress events
}

// sectionNames returns the registry's section names in paper order.
func sectionNames() []string {
	defs := report.Sections()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// runSections executes the named sections as ONE merged campaign —
// every cell of every section schedules in parallel under the shared
// worker bound — then renders each section in order from the result
// set, so the bytes match a serial run exactly.
func (a *app) runSections(ctx context.Context, names []string) error {
	var sections []report.SectionDef
	var specs []campaign.Spec
	for _, name := range names {
		def, ok := report.Section(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		specs = append(specs, def.Spec(a.ev))
		sections = append(sections, def)
	}

	merged := campaign.Merge("evaluation", specs...)
	rs, err := campaign.Run(ctx, merged, campaign.Options{
		Workers:     a.workers,
		Runner:      a.runner,
		OnProgress:  a.onProgress(),
		RetryBudget: a.retryBudget,
	})
	if err != nil {
		return err
	}

	rc := &report.Context{Eval: a.ev, Results: rs, CSV: a.csv, SVGPath: a.svgPath}
	var degraded []string
	for i, def := range sections {
		skipped, err := a.renderSection(def, rc)
		if err != nil {
			return err
		}
		if skipped {
			degraded = append(degraded, def.Name)
		}
		if len(sections) > 1 || i < len(sections)-1 {
			fmt.Fprintln(a.stdout)
		}
	}
	if skippedCells := rs.Skipped(); len(skippedCells) > 0 || len(degraded) > 0 {
		// Degraded mode: everything that completed has been rendered; the
		// banner and the non-zero exit report what is missing.
		obs.Emit("degraded-run",
			"skipped_cells", strconv.Itoa(len(skippedCells)),
			"incomplete_sections", strconv.Itoa(len(degraded)))
		obs.Instant("degraded-run", "campaign",
			"skipped_cells", strconv.Itoa(len(skippedCells)))
		if a.stderr != nil {
			fmt.Fprintf(a.stderr, "experiments: DEGRADED RUN: %d cell(s) skipped, %d section(s) incomplete\n",
				len(skippedCells), len(degraded))
			for _, k := range skippedCells {
				fmt.Fprintf(a.stderr, "experiments:   skipped cell %s\n", k)
			}
		}
		return fmt.Errorf("degraded run: %d cell(s) skipped after retries (%d section(s) incomplete; completed sections were rendered)",
			len(skippedCells), len(degraded))
	}
	return nil
}

// renderSection renders one section. A section whose cells were parked
// by the campaign's circuit breaker (campaign.ErrCellSkipped) renders as
// a one-line placeholder and reports skipped=true instead of failing, so
// one bad section degrades the report rather than truncating it.
func (a *app) renderSection(def report.SectionDef, rc *report.Context) (skipped bool, err error) {
	var buf bytes.Buffer
	if err := def.Render(&buf, rc); err != nil {
		if errors.Is(err, campaign.ErrCellSkipped) {
			fmt.Fprintf(a.stdout, "[section %s skipped: its cells exhausted the campaign retry budget]\n", def.Name)
			return true, nil
		}
		return false, err
	}
	_, err = a.stdout.Write(buf.Bytes())
	return false, err
}

// onProgress returns the campaign progress sink (nil when -progress is
// off). Events go to a side channel, never stdout, so the rendered
// tables stay byte-identical with and without it.
func (a *app) onProgress() func(campaign.Progress) {
	if a.progress == nil {
		return nil
	}
	w := a.progress
	return func(p campaign.Progress) {
		if p.Cell == "" && p.Note != "" {
			// Checkpoint-load report: quarantine, salvage.
			fmt.Fprintf(w, "campaign: checkpoint: %s\n", p.Note)
			return
		}
		state := ""
		if p.Cached {
			state = " (cached)"
		}
		if p.Err != nil {
			state = " (failed: " + p.Err.Error() + ")"
		}
		if p.Skipped {
			state = fmt.Sprintf(" (SKIPPED after %d attempts: %v)", p.Attempts, p.Err)
		} else if p.Attempts > 1 {
			state += fmt.Sprintf(" (attempt %d)", p.Attempts)
		}
		eta := ""
		if p.ETA > 0 {
			eta = fmt.Sprintf(" eta %s", p.ETA.Round(time.Second))
		}
		fmt.Fprintf(w, "campaign: [%d/%d] %s %s%s%s\n",
			p.Done, p.Total, p.Cell, p.CellElapsed.Round(time.Millisecond), state, eta)
	}
}

// chaos runs the crash-consistency torture harness (internal/chaostest)
// and prints its report: a real campaign executed against a
// fault-injecting filesystem, killed at randomized checkpoint-commit
// boundaries, corrupted between cycles, resumed, and finally verified
// byte-for-byte against an undisturbed run.
func (a *app) chaos(ctx context.Context, cfg chaostest.Config) error {
	rep, err := chaostest.Run(ctx, cfg)
	fmt.Fprintf(a.stdout, "chaos: seed %#x: %d cycle(s), %d kill(s), %d corruption(s), %d injected fault(s) (%d torn, %d short, %d io, %d nospace, %d rename, %d fsync-loss, %d bitflip), %d quarantined file(s)\n",
		cfg.Seed, rep.Cycles, rep.Kills, rep.Corruptions,
		rep.Faults.Total(), rep.Faults.TornWrites, rep.Faults.ShortWrites,
		rep.Faults.WriteErrs, rep.Faults.NoSpaceErrs, rep.Faults.RenameFails,
		rep.Faults.FsyncLosses, rep.Faults.BitFlips, rep.Quarantined)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "chaos: final report byte-identical to the undisturbed run (%d bytes)\n", rep.GoldenBytes)
	return nil
}

// parseGeometry parses a ranks x groups x banks x rows spec like
// "1x8x4x65536" into device parameters based on the full-DIMM defaults,
// keeping the refresh interval a divisor of the row count. The spec must
// be exactly four decimal fields: trailing input is an error, not
// ignored.
func parseGeometry(s string) (dram.Params, error) {
	p := dram.FullDIMMParams()
	bad := fmt.Errorf("geometry %q: want RANKSxGROUPSxBANKSxROWS, e.g. 1x8x4x65536", s)
	fields := strings.Split(s, "x")
	if len(fields) != 4 {
		return p, bad
	}
	var dims [4]int
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return p, bad
		}
		dims[i] = n
	}
	rows := dims[3]
	p.Ranks, p.BankGroups, p.Banks, p.RowsPerBank = dims[0], dims[1], dims[2], rows
	if p.RefInt > 0 && rows%p.RefInt != 0 {
		// Keep whole rows-per-interval; an eighth of the rows per window
		// mirrors the default scale's proportions.
		p.RefInt = rows / 8
		if p.RefInt < 1 {
			p.RefInt = 1
		}
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("geometry %q: %w", s, err)
	}
	return p, nil
}

func main() {
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}

	ev := campaign.DefaultEval()
	ev.Base.Windows = *windows
	if *paper {
		ev.Base.Params = dram.PaperParams()
	}
	if *geomF != "" {
		p, err := parseGeometry(*geomF)
		if err != nil {
			fatal(err)
		}
		ev.Base.Params = p
	}
	ev.SeedsPerPoint = *seeds
	ev.Trials = *trials

	runner := sim.NewRunner()
	runner.Config.Workers = *workers
	runner.Config.PerRunTimeout = *timeout
	runner.Config.StallTimeout = *stall
	switch {
	case *ckptPath != "":
		ck, err := sim.LoadCheckpoint(*ckptPath)
		if err != nil {
			fatal(err)
		}
		runner.Checkpoint = ck
	case *resume:
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	a := &app{
		ev:          ev,
		csv:         *csvOut,
		svgPath:     *svgOut,
		workers:     *workers,
		retryBudget: *retryBudg,
		runner:      runner,
		stdout:      os.Stdout,
		stderr:      os.Stderr,
	}
	if *progress {
		a.progress = os.Stderr
		// Structured obs events (retry/breaker/DEGRADED/quarantine
		// transitions) ride the same side channel as progress: stderr,
		// never stdout, so rendered tables stay byte-identical.
		obs.SetEventSink(os.Stderr)
	}
	if *noMetrics {
		obs.SetMetricsEnabled(false)
	}
	if *traceF != "" {
		obs.SetTracer(obs.NewTracer())
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof-addr: %w", err))
		}
		fmt.Fprintf(os.Stderr, "experiments: pprof listening on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) // DefaultServeMux carries net/http/pprof
	}

	// Ctrl-C or a supervisor's SIGTERM cancels the campaign (or, for
	// `serve`, triggers the graceful drain); completed cells are already
	// in the checkpoint, so the re-run is cheap.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cmd {
	case "all":
		err = a.runSections(ctx, sectionNames())
	case "chaos":
		cfg := chaostest.Config{
			Seed:    *chSeed,
			Cycles:  *chCycles,
			Corrupt: *chCorrupt,
			Workers: *workers,
			Dir:     *chDir,
		}
		if *progress {
			cfg.Log = os.Stderr
		}
		err = a.chaos(ctx, cfg)
	case "serve":
		err = a.serveCmd(ctx, *addr, serve.Config{
			Workers:         *workers,
			QueueDepth:      *queueDep,
			MaxTenants:      *maxTen,
			RetryBudget:     *retryBudg,
			BaseEval:        ev,
			CheckpointPath:  *ckptPath,
			JournalPath:     *journalF,
			DisableRecovery: !*recoverF,
			PerRunTimeout:   *timeout,
			StallTimeout:    *stall,
			DrainTimeout:    *drainTO,
			Log:             os.Stderr,
		})
	case "serve-chaos":
		cfg := servetest.ChaosConfig{
			Seed:    *chSeed,
			Workers: *workers,
			Dir:     *chDir,
		}
		if *progress {
			cfg.Log = os.Stderr
		}
		err = a.serveChaos(ctx, cfg)
	default:
		if _, ok := report.Section(cmd); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
			flag.Usage()
			os.Exit(2)
		}
		err = a.runSections(ctx, []string{cmd})
	}
	// Artifacts are written on every exit path — a DEGRADED or failed run
	// is exactly when the operator wants the flight recorder.
	if oerr := writeObsArtifacts(*metricsF, *traceF); oerr != nil && err == nil {
		err = oerr
	}
	if err != nil {
		fatal(err)
	}
}

// writeObsArtifacts dumps the metric registry and the span trace to
// their -metrics-out / -trace-out paths (empty = skip).
func writeObsArtifacts(metricsPath, tracePath string) error {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		werr := obs.Default.WritePrometheus(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("metrics-out: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote metrics to %s\n", metricsPath)
	}
	if tracePath != "" {
		t := obs.CurrentTracer()
		if t == nil {
			return nil
		}
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		werr := t.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace-out: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace event(s) to %s (%d dropped) — load in ui.perfetto.dev\n",
			t.Len(), tracePath, t.Dropped())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
