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
//	                               checkpoint-flush boundaries, corrupt the
//	                               checkpoint between cycles, resume, and
//	                               verify the final report is byte-identical
//	                               to an undisturbed run
//	experiments bench            — run `all` at -workers 1 and -workers N,
//	                               verify byte-identical output, write timings
//	experiments profile          — hot-path benchmark harness: per-technique
//	                               act-path ns/act + allocs/act, written to
//	                               BENCH_hotpath.json (optionally with
//	                               pprof CPU/heap profiles)
//	experiments scale            — scale-out gate: simulate a full-DIMM
//	                               geometry (sparse state, heap bounded by
//	                               touched rows, asserted) and time a
//	                               multi-worker seed sweep serial vs
//	                               parallel, folding both measurements into
//	                               BENCH_campaign.json. On a single-CPU
//	                               host the speedup claim is withheld
//	                               (speedup_claimed=false) and the command
//	                               refuses to run without -allow-single-cpu
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
//	                               at a seeded journal-commit ordinal, its
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
//	-checkpoint PATH  persist per-seed and per-probe results (and finished
//	                  sections) to a JSON checkpoint; a killed run re-uses
//	                  them on restart
//	-checkpoint-shards N
//	                  with -checkpoint: use the sharded directory layout —
//	                  PATH becomes a directory of N per-cell-group shard
//	                  files and a flush rewrites only the shards that
//	                  changed (an existing directory's on-disk count wins)
//	-geometry RxGxBxROWS
//	                  override the device geometry as
//	                  ranks x bank-groups x banks x rows-per-bank
//	                  (e.g. 1x8x4x65536); geometries of >= 2M rows
//	                  automatically use the sparse per-row state
//	-allow-single-cpu bench/scale: run on a single-CPU host anyway,
//	                  recording timings with speedup_claimed=false instead
//	                  of refusing
//	-resume           with -checkpoint: also replay fully finished sections
//	                  from the checkpoint instead of recomputing them
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
//	-bench-out PATH   where `bench` writes its JSON report (default
//	                  BENCH_campaign.json)
//	-bench-min-speedup X
//	                  bench: fail when the parallel run's speedup over the
//	                  serial run is below X on a multi-core host (0 = no
//	                  floor; single-CPU hosts are never gated)
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
//	-profile-out PATH where `profile` writes its JSON report (default
//	                  BENCH_hotpath.json)
//	-cpuprofile PATH  profile: also capture a pprof CPU profile of the
//	                  act-path measurements
//	-memprofile PATH  profile: also capture a pprof heap profile at exit
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
//	-no-metrics       disable the sampled metric flushes (the act path's
//	                  two atomic adds per interval); mainly for A/B-ing
//	                  obs overhead and the determinism property test
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/chaostest"
	"tivapromi/internal/dram"
	"tivapromi/internal/hotpath"
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
	ckptShard = flag.Int("checkpoint-shards", 0, "with -checkpoint: sharded directory layout with this many shard files (0 = single file)")
	resume    = flag.Bool("resume", false, "with -checkpoint: replay finished sections from the checkpoint")
	geomF     = flag.String("geometry", "", "device geometry ranks x groups x banks x rows, e.g. 1x8x4x65536")
	allow1cpu = flag.Bool("allow-single-cpu", false, "bench/scale: record timings on a single-CPU host with speedup_claimed=false")
	workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	timeout   = flag.Duration("timeout", 0, "per-run deadline for one simulation (0 = none)")
	stall     = flag.Duration("stall", 0, "stall watchdog: cancel+retry a run silent for this long (0 = off)")
	retryBudg = flag.Int("retry-budget", 0, "total cell-level re-attempts for transient failures (0 = none)")
	progress  = flag.Bool("progress", false, "stream per-cell progress to stderr")
	benchOut  = flag.String("bench-out", "BENCH_campaign.json", "bench: JSON report path")
	profOut   = flag.String("profile-out", "BENCH_hotpath.json", "profile: JSON report path")
	cpuProf   = flag.String("cpuprofile", "", "profile: write a pprof CPU profile here")
	memProf   = flag.String("memprofile", "", "profile: write a pprof heap profile here")
	chSeed    = flag.Uint64("chaos-seed", 1, "chaos: master seed for the torture schedule")
	chCycles  = flag.Int("chaos-cycles", 3, "chaos: kill/resume cycles before the clean final run")
	chCorrupt = flag.Bool("chaos-corrupt", true, "chaos: flip one checkpoint byte between cycles")
	chDir     = flag.String("chaos-dir", "", "chaos: working directory (default: a fresh temp dir)")
	benchMin  = flag.Float64("bench-min-speedup", 0, "bench: fail below this parallel speedup on multi-core (0 = no floor)")
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
	resume      bool
	workers     int
	retryBudget int
	runner      *sim.Runner
	stdout      io.Writer
	stderr      io.Writer // nil: degraded-run diagnostics are dropped
	progress    io.Writer // nil: no progress events

	// benchMinSpeedup, when > 0, fails `bench` if the parallel run's
	// speedup over the serial run is below it on a multi-core host.
	benchMinSpeedup float64
	// allowSingleCPU lets bench/scale run on a single-CPU host, recording
	// timings with the speedup claim withheld instead of refusing.
	allowSingleCPU bool
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
	type pending struct {
		def    report.SectionDef
		replay string // non-empty: cached output to replay verbatim
	}
	ck := a.runner.Checkpoint
	var sections []pending
	var specs []campaign.Spec
	for _, name := range names {
		def, ok := report.Section(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		p := pending{def: def}
		if a.resume {
			if text, ok := ck.Output(a.outputKey(name)); ok {
				p.replay = text
				sections = append(sections, p)
				continue
			}
		}
		specs = append(specs, def.Spec(a.ev))
		sections = append(sections, p)
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
	for i, p := range sections {
		if p.replay != "" {
			if _, err := io.WriteString(a.stdout, p.replay); err != nil {
				return err
			}
		} else {
			skipped, err := a.renderSection(p.def, rc)
			if err != nil {
				return err
			}
			if skipped {
				degraded = append(degraded, p.def.Name)
			}
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

// renderSection renders one section with output-level checkpointing:
// when a checkpoint is armed the rendered bytes are stored, and a later
// -resume replays them verbatim — byte-identical tables without
// recomputation. Failed sections are not cached; their cells still are,
// via the campaign's checkpoint, so the retry is cheap.
//
// A section whose cells were parked by the campaign's circuit breaker
// (campaign.ErrCellSkipped) renders as a one-line placeholder and
// reports skipped=true instead of failing, so one bad section degrades
// the report rather than truncating it.
func (a *app) renderSection(def report.SectionDef, rc *report.Context) (skipped bool, err error) {
	var buf bytes.Buffer
	if err := def.Render(&buf, rc); err != nil {
		if errors.Is(err, campaign.ErrCellSkipped) {
			fmt.Fprintf(a.stdout, "[section %s skipped: its cells exhausted the campaign retry budget]\n", def.Name)
			return true, nil
		}
		return false, err
	}
	if _, err := a.stdout.Write(buf.Bytes()); err != nil {
		return false, err
	}
	if ck := a.runner.Checkpoint; ck != nil {
		return false, ck.PutOutput(a.outputKey(def.Name), buf.String())
	}
	return false, nil
}

// outputKey names a section's cached output: the section name plus a
// fingerprint of the knobs its bytes depend on (the Eval and -csv), so
// a -resume under different knobs (say, more -seeds) re-renders instead
// of replaying a stale section. Entries cached under a bare section
// name never match.
func (a *app) outputKey(name string) string {
	// Eval holds only plain data (sim.Config's Factory is json:"-"), so
	// encoding cannot fail.
	raw, _ := json.Marshal(struct {
		Eval campaign.Eval
		CSV  bool
	}{a.ev, a.csv})
	h := sha256.Sum256(raw)
	return name + "@" + hex.EncodeToString(h[:8])
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
			// Checkpoint-load report: quarantine, salvage, migration.
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
// fault-injecting filesystem, killed at randomized checkpoint-flush
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

// benchReport is the JSON document `experiments bench` writes: the
// wall-clock of the full evaluation at one worker versus N, and whether
// the outputs matched byte for byte.
type benchReport struct {
	Sections        int     `json:"sections"`
	Cells           int     `json:"cells"`
	Seeds           int     `json:"seeds"`
	Windows         int     `json:"windows"`
	Trials          int     `json:"trials"`
	CPUs            int     `json:"cpus"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	WorkersParallel int     `json:"workers_parallel"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Identical       bool    `json:"identical"`
	// SpeedupClaimed is false when the timings were taken on a
	// single-CPU host: the numbers are recorded for completeness but a
	// parallel-scaling claim cannot be substantiated without cores to
	// overlap work on. Gating consumers must check this, not Speedup.
	SpeedupClaimed bool `json:"speedup_claimed"`
	// Scale is `experiments scale`'s section: full-DIMM sparse-state
	// footprint plus the multi-worker sweep timings.
	Scale *scaleSection `json:"scale,omitempty"`
}

// scaleSection is what `experiments scale` folds into the campaign
// benchmark report.
type scaleSection struct {
	sim.ScaleSmokeReport
	CPUs            int     `json:"cpus"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	SweepSeeds      int     `json:"sweep_seeds"`
	WorkersParallel int     `json:"workers_parallel"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Identical       bool    `json:"identical"`
	SpeedupClaimed  bool    `json:"speedup_claimed"`
}

// loadBenchReport reads an existing report at path so bench and scale
// can each update their own fields without clobbering the other's. A
// missing or unparseable file starts fresh.
func loadBenchReport(path string) benchReport {
	var rep benchReport
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &rep)
	}
	return rep
}

// writeBenchReport writes the report as indented JSON.
func writeBenchReport(path string, rep benchReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// bench runs the whole evaluation twice — serial and parallel — with no
// checkpoint (so both runs really compute), verifies the outputs are
// byte-identical, and writes the timing report.
func (a *app) bench(ctx context.Context, path string) error {
	names := sectionNames()
	par := a.workers
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	single := runtime.NumCPU() == 1
	if single {
		// A single-CPU host cannot overlap work, so any speedup number it
		// produces is noise. Refuse to record one silently: the operator
		// must opt in, and the report then carries speedup_claimed=false.
		if !a.allowSingleCPU {
			return fmt.Errorf("bench: single-CPU host cannot substantiate a parallel speedup claim; rerun on >= 2 CPUs or pass -allow-single-cpu to record timings with speedup_claimed=false")
		}
		fmt.Fprintln(os.Stderr,
			"experiments: bench on a single-CPU host: the parallel run cannot overlap work; recording speedup_claimed=false")
	}
	run := func(workers int) (string, time.Duration, error) {
		var buf bytes.Buffer
		b := *a
		b.stdout = &buf
		b.workers = workers
		b.runner = &sim.Runner{Config: a.runner.Config} // no checkpoint
		b.resume = false
		start := time.Now()
		err := b.runSections(ctx, names)
		return buf.String(), time.Since(start), err
	}
	serialOut, serialDur, err := run(1)
	if err != nil {
		return err
	}
	parOut, parDur, err := run(par)
	if err != nil {
		return err
	}

	var specs []campaign.Spec
	for _, name := range names {
		def, _ := report.Section(name)
		specs = append(specs, def.Spec(a.ev))
	}
	rep := benchReport{
		Sections:        len(names),
		Cells:           len(campaign.Merge("evaluation", specs...).Cells),
		Seeds:           a.ev.SeedsPerPoint,
		Windows:         a.ev.Base.Windows,
		Trials:          a.ev.Trials,
		CPUs:            runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		WorkersParallel: par,
		SerialSeconds:   serialDur.Seconds(),
		ParallelSeconds: parDur.Seconds(),
		Speedup:         serialDur.Seconds() / parDur.Seconds(),
		Identical:       serialOut == parOut,
		SpeedupClaimed:  !single,
		Scale:           loadBenchReport(path).Scale, // keep `scale`'s section
	}
	if err := writeBenchReport(path, rep); err != nil {
		return err
	}
	// The CPU count leads the summary: a speedup number is meaningless
	// without knowing how many cores were available to produce it.
	fmt.Fprintf(a.stdout, "bench: cpus=%d gomaxprocs=%d\n", rep.CPUs, rep.GoMaxProcs)
	fmt.Fprintf(a.stdout, "bench: %d cells, serial %.1fs, parallel(%d) %.1fs, speedup %.2fx, identical %v — wrote %s\n",
		rep.Cells, rep.SerialSeconds, par, rep.ParallelSeconds, rep.Speedup, rep.Identical, path)
	if !rep.Identical {
		return fmt.Errorf("bench: serial and parallel outputs differ")
	}
	if a.benchMinSpeedup > 0 && rep.CPUs > 1 && rep.Speedup < a.benchMinSpeedup {
		return fmt.Errorf("bench: parallel speedup %.2fx on %d CPUs is below the -bench-min-speedup floor %.2f — the worker pool is not overlapping work",
			rep.Speedup, rep.CPUs, a.benchMinSpeedup)
	}
	return nil
}

// scale is the scale-out gate: simulate a full-DIMM geometry and assert
// the sparse-state memory bounds, then time a multi-worker seed sweep
// serial versus parallel with a byte-identity check, and fold both
// measurements into the campaign benchmark report at path. Like bench,
// it refuses to produce a speedup number on a single-CPU host unless
// -allow-single-cpu marks the claim withheld.
func (a *app) scale(ctx context.Context, path string, p dram.Params) error {
	single := runtime.NumCPU() == 1
	if single && !a.allowSingleCPU {
		return fmt.Errorf("scale: single-CPU host cannot substantiate a parallel speedup claim; rerun on >= 2 CPUs or pass -allow-single-cpu to record timings with speedup_claimed=false")
	}

	smoke, err := sim.ScaleSmoke(ctx, sim.ScaleSmokeConfig(p), "PARA")
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "scale: geometry %s: %d banks, %d rows, sparse=%v\n",
		smoke.Geometry, smoke.TotalBanks, smoke.TotalRows, smoke.Sparse)
	fmt.Fprintf(a.stdout, "scale: touched %d/%d rows, state %d B vs dense %d B (%.1fx smaller), live heap +%d B, %d acts in %.2fs\n",
		smoke.TouchedRows, smoke.TotalRows, smoke.StateBytes, smoke.DenseBytes,
		float64(smoke.DenseBytes)/float64(smoke.StateBytes), smoke.HeapGrowth,
		smoke.TotalActs, smoke.Seconds)
	if err := smoke.Check(); err != nil {
		return err
	}
	fmt.Fprintln(a.stdout, "scale: memory gate passed (state <= dense/8, heap growth <= dense/2)")

	// Multi-worker sweep: the same seeds through the runner at one worker
	// and at N, compared for byte-identical summaries. The sweep uses the
	// evaluation's base config (seed-scale device), not the full DIMM —
	// the campaign's unit of parallelism is the seed, and the point is
	// worker-pool scaling, not device size.
	par := a.workers
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	cfg := a.ev.Base
	seeds := sim.Seeds(1, 4*par)
	sweep := func(workers int) ([]byte, time.Duration, error) {
		r := sim.NewRunner()
		r.Config = a.runner.Config
		r.Config.Workers = workers
		start := time.Now()
		sum, runErrs, err := r.RunSeeds(ctx, cfg, "PARA", seeds)
		if err != nil {
			return nil, 0, err
		}
		if len(runErrs) != 0 {
			return nil, 0, fmt.Errorf("scale: sweep at %d worker(s): %d seed(s) failed: %v", workers, len(runErrs), runErrs[0])
		}
		dur := time.Since(start)
		raw, err := json.Marshal(sum)
		return raw, dur, err
	}
	serialSum, serialDur, err := sweep(1)
	if err != nil {
		return err
	}
	parSum, parDur, err := sweep(par)
	if err != nil {
		return err
	}

	sec := &scaleSection{
		ScaleSmokeReport: smoke,
		CPUs:             runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		SweepSeeds:       len(seeds),
		WorkersParallel:  par,
		SerialSeconds:    serialDur.Seconds(),
		ParallelSeconds:  parDur.Seconds(),
		Speedup:          serialDur.Seconds() / parDur.Seconds(),
		Identical:        bytes.Equal(serialSum, parSum),
		SpeedupClaimed:   !single,
	}
	rep := loadBenchReport(path)
	rep.Scale = sec
	if err := writeBenchReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "scale: cpus=%d sweep %d seeds, serial %.1fs, parallel(%d) %.1fs, speedup %.2fx (claimed=%v), identical %v — wrote %s\n",
		sec.CPUs, sec.SweepSeeds, sec.SerialSeconds, par, sec.ParallelSeconds,
		sec.Speedup, sec.SpeedupClaimed, sec.Identical, path)
	if !sec.Identical {
		return fmt.Errorf("scale: serial and parallel sweep summaries differ")
	}
	if a.benchMinSpeedup > 0 && sec.SpeedupClaimed && sec.Speedup < a.benchMinSpeedup {
		return fmt.Errorf("scale: parallel speedup %.2fx on %d CPUs is below the -bench-min-speedup floor %.2f",
			sec.Speedup, sec.CPUs, a.benchMinSpeedup)
	}
	return nil
}

// parseGeometry parses a ranks x groups x banks x rows spec like
// "1x8x4x65536" into device parameters based on the full-DIMM defaults,
// keeping the refresh interval a divisor of the row count.
func parseGeometry(s string) (dram.Params, error) {
	p := dram.FullDIMMParams()
	var ranks, groups, banks, rows int
	if n, err := fmt.Sscanf(s, "%dx%dx%dx%d", &ranks, &groups, &banks, &rows); n != 4 || err != nil {
		return p, fmt.Errorf("geometry %q: want RANKSxGROUPSxBANKSxROWS, e.g. 1x8x4x65536", s)
	}
	p.Ranks, p.BankGroups, p.Banks, p.RowsPerBank = ranks, groups, banks, rows
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

// profile runs the hot-path benchmark harness (internal/hotpath) and
// writes its report to path. It exits with an error when any technique's
// activation path allocates — the regression the harness exists to catch.
// Optional pprof captures cover the act-path measurements (CPU) and the
// end state (heap).
func (a *app) profile(path, cpuPath, memPath string) error {
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(os.Stderr,
			"experiments: profile on a single-CPU host: throughput numbers will be depressed by timer interference")
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep := hotpath.BuildReport()
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, m := range rep.ActPath {
		line := fmt.Sprintf("profile: %-10s %8.1f ns/act  %6.3f allocs/act  %12.0f acts/sec",
			m.Name, m.NsPerAct, m.AllocsPerAct, m.ActsPerSec)
		if m.RefNsPerAct > 0 {
			line += fmt.Sprintf("  (serial-LFSR ref %.1f ns/act, %.1fx)", m.RefNsPerAct, m.Speedup)
		}
		if m.ObsNsPerAct > 0 {
			line += fmt.Sprintf("  (obs on: %.1f ns/act, %+.1f%%)", m.ObsNsPerAct, m.ObsOverheadPct)
		}
		fmt.Fprintln(a.stdout, line)
	}
	fmt.Fprintf(a.stdout, "profile: wrote %s\n", path)
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	for _, m := range rep.ActPath {
		if m.AllocsPerAct > 0 {
			return fmt.Errorf("profile: %s allocates %.3f objects per activation on the act path, want 0",
				m.Name, m.AllocsPerAct)
		}
	}
	return nil
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
	case *ckptPath != "" && *ckptShard > 0:
		ck, err := sim.LoadShardedCheckpoint(*ckptPath, *ckptShard)
		if err != nil {
			fatal(err)
		}
		runner.Checkpoint = ck
	case *ckptPath != "":
		ck, err := sim.LoadCheckpoint(*ckptPath)
		if err != nil {
			fatal(err)
		}
		runner.Checkpoint = ck
	case *ckptShard > 0:
		fatal(fmt.Errorf("-checkpoint-shards requires -checkpoint"))
	case *resume:
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	a := &app{
		ev:              ev,
		csv:             *csvOut,
		svgPath:         *svgOut,
		resume:          *resume,
		workers:         *workers,
		retryBudget:     *retryBudg,
		runner:          runner,
		stdout:          os.Stdout,
		stderr:          os.Stderr,
		benchMinSpeedup: *benchMin,
		allowSingleCPU:  *allow1cpu,
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
	case "bench":
		err = a.bench(ctx, *benchOut)
	case "scale":
		p := dram.FullDIMMParams()
		if *geomF != "" {
			p = ev.Base.Params
		}
		err = a.scale(ctx, *benchOut, p)
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
	case "profile":
		err = a.profile(*profOut, *cpuProf, *memProf)
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
