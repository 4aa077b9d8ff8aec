// Package chaostest is the crash-consistency torture harness: it runs a
// real in-process campaign (actual simulation cells, actual checkpoint)
// against the fault-injecting filesystem of internal/iofault, kills the
// campaign at randomized checkpoint-commit boundaries, corrupts checkpoint
// bytes between cycles, resumes from whatever survived, and finally
// verifies that the resumed-and-finished report is byte-identical to an
// undisturbed run.
//
// Byte identity is the strongest end-to-end statement the persistence
// layer can make: every salvage decision, every quarantine, every
// re-executed seed must converge on exactly the output a never-failing
// machine produces. The whole schedule — fault draws, kill points,
// corruption offsets — derives from one master seed, so every torture
// run is reproducible from its seed.
package chaostest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/iofault"
	"tivapromi/internal/report"
	"tivapromi/internal/rng"
	"tivapromi/internal/sim"
)

// Config tunes one torture run.
type Config struct {
	// Seed drives the whole torture schedule: fault probabilities draws,
	// kill commit ordinals, and corruption offsets.
	Seed uint64
	// Cycles is the number of kill/resume cycles before the clean final
	// run (≤ 0 means 3).
	Cycles int
	// Corrupt additionally flips one byte of the on-disk checkpoint
	// between cycles, exercising the salvage/quarantine path on top of
	// the injected write faults.
	Corrupt bool
	// Workers bounds campaign concurrency (0 = GOMAXPROCS).
	Workers int
	// Sections names the report sections forming the campaign (empty =
	// a compact default mixing sweeps and probes).
	Sections []string
	// Eval is the evaluation scale; the zero value selects
	// TestScaleEval, which keeps a full torture run in CI-sized time.
	Eval campaign.Eval
	// Dir is the working directory for the checkpoint and its
	// quarantined corpses ("" = a fresh temp directory).
	Dir string
	// Log, when non-nil, receives the harness's progress narration.
	Log io.Writer
}

// Report summarizes one torture run.
type Report struct {
	// Cycles is the number of kill/resume cycles executed.
	Cycles int
	// Kills counts cycles the kill switch actually fired in (a cycle
	// whose campaign finished before its kill ordinal counts as a
	// survivor, not a kill).
	Kills int
	// Corruptions counts deliberate post-cycle byte flips applied to the
	// on-disk checkpoint.
	Corruptions int
	// Faults aggregates every fault the chaos filesystem injected across
	// all cycles.
	Faults iofault.ChaosStats
	// Quarantined counts `<checkpoint>.corrupt-*` files left behind by
	// salvage — the forensic corpses of detected corruption.
	Quarantined int
	// GoldenBytes is the length of the undisturbed reference report.
	GoldenBytes int
	// Identical reports whether the final resumed run reproduced the
	// reference byte for byte.
	Identical bool
}

// TestScaleEval is the quarter-scale evaluation the torture harness (and
// CI) runs at: the campaign's structure — cells, checkpoints, renders —
// is what is under torture, not the device physics.
func TestScaleEval() campaign.Eval {
	ev := campaign.DefaultEval()
	ev.SeedsPerPoint = 1
	ev.Base.Windows = 1
	ev.Trials = 2
	p := dram.ScaledParams()
	p.RowsPerBank /= 4
	p.RefInt /= 4
	p.FlipThreshold /= 4
	ev.Base.Params = p
	ev.Probe = p
	ev.Thresholds = []uint32{p.FlipThreshold, p.FlipThreshold / 2}
	return ev
}

// DefaultSections is the compact section mix the harness tortures by
// default: FSM probes (table2), seed sweeps plus security probes
// (table3), and the flooding trials — every checkpoint entry kind
// (sweep seed, probe, output) gets exercised.
func DefaultSections() []string { return []string{"table2", "table3", "flooding"} }

// ChaosOdds is the per-operation fault mix one torture cycle runs under.
// The rates are deliberately moderate: high enough that a multi-commit
// cycle reliably draws several faults, low enough that checkpoints still
// make forward progress between failures. The serving torture
// (internal/servetest) runs its chaos phase under the same mix.
func ChaosOdds(seed uint64) iofault.ChaosConfig {
	return iofault.ChaosConfig{
		Seed:       seed,
		TornWrite:  0.04,
		ShortWrite: 0.03,
		WriteErr:   0.03,
		NoSpace:    0.02,
		RenameFail: 0.03,
		FsyncLoss:  0.03,
		BitFlip:    0.02,
	}
}

// Run executes the torture protocol:
//
//  1. reference: run the campaign undisturbed (no checkpoint, clean FS)
//     and render the report — the golden bytes;
//  2. cycles: repeatedly run the same campaign with a checkpoint on the
//     chaos filesystem, killing the run at a seeded checkpoint-commit
//     ordinal and (optionally) flipping a checkpoint byte afterwards;
//  3. final: resume once more on a clean filesystem, let the campaign
//     finish, render, and compare against the golden bytes.
//
// A non-nil error means the protocol itself failed or — the finding the
// harness exists for — the final report was not byte-identical.
func Run(ctx context.Context, cfg Config) (Report, error) {
	var rep Report
	if ctx == nil {
		ctx = context.Background()
	}
	cycles := cfg.Cycles
	if cycles <= 0 {
		cycles = 3
	}
	names := cfg.Sections
	if len(names) == 0 {
		names = DefaultSections()
	}
	ev := cfg.Eval
	if ev.SeedsPerPoint == 0 {
		ev = TestScaleEval()
	}
	var specs []campaign.Spec
	for _, name := range names {
		def, ok := report.Section(name)
		if !ok {
			return rep, fmt.Errorf("chaostest: unknown section %q", name)
		}
		specs = append(specs, def.Spec(ev))
	}
	merged := campaign.Merge("chaos", specs...)

	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaostest-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	ckpt := filepath.Join(dir, "checkpoint.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0xc4a057e57)

	// Phase 1: the undisturbed reference.
	logf(cfg.Log, "chaostest: reference run (%d cells)", len(merged.Cells))
	golden, err := runAndRender(ctx, merged, ev, names, sim.NewRunner(), cfg.Workers)
	if err != nil {
		return rep, fmt.Errorf("chaostest: reference run: %w", err)
	}
	rep.GoldenBytes = len(golden)

	// Phase 2: kill/resume cycles under injected faults.
	for cycle := 0; cycle < cycles; cycle++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Cycles++
		fsys := iofault.NewChaos(nil, ChaosOdds(master.Uint64()))
		killAt := 1 + rng.Intn(master, 12)
		cycleCtx, cancel := context.WithCancel(ctx)
		killed := false
		fsys.OnCommit = func(_ string, n int) {
			if n >= killAt {
				killed = true
				cancel()
			}
		}
		ck, err := sim.LoadCheckpointFS(ckpt, fsys)
		if err != nil {
			// The chaos FS can fail even the load-time salvage rewrite;
			// the damaged original is already quarantined, so the next
			// cycle simply starts from an empty checkpoint. That is the
			// torture working, not the torture failing.
			logf(cfg.Log, "chaostest: cycle %d: checkpoint load under faults: %v", cycle+1, err)
			cancel()
			rep.Faults = addStats(rep.Faults, fsys.Stats())
			continue
		}
		if note := ck.LoadReport().Note(); note != "" {
			logf(cfg.Log, "chaostest: cycle %d: checkpoint: %s", cycle+1, note)
		}
		runner := sim.NewRunner()
		runner.Checkpoint = ck
		_, err = campaign.Run(cycleCtx, merged, campaign.Options{
			Workers: cfg.Workers,
			Runner:  runner,
			// Write faults surface as cell-level checkpoint errors; a
			// generous budget keeps the campaign fighting through them
			// until the kill lands.
			RetryBudget:  10 * len(merged.Cells),
			BreakerAfter: 6,
			RetryBackoff: 1,
			RetrySeed:    cfg.Seed,
		})
		cancel()
		// The cycle's own kill produces context.Canceled — expected. Only
		// the caller's context dying aborts the torture.
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		if killed {
			rep.Kills++
		}
		rep.Faults = addStats(rep.Faults, fsys.Stats())
		logf(cfg.Log, "chaostest: cycle %d: killAt=%d killed=%v faults=%d commits=%d err=%v",
			cycle+1, killAt, killed, fsys.Stats().Total(), fsys.Stats().Commits, err)

		if cfg.Corrupt {
			if n, err := flipByte(ckpt, master); err == nil && n {
				rep.Corruptions++
			}
		}
	}

	// Phase 3: resume on a clean filesystem and finish.
	ck, err := sim.LoadCheckpointFS(ckpt, nil)
	if err != nil {
		return rep, fmt.Errorf("chaostest: final load: %w", err)
	}
	if note := ck.LoadReport().Note(); note != "" {
		logf(cfg.Log, "chaostest: final load: %s", note)
	}
	runner := sim.NewRunner()
	runner.Checkpoint = ck
	final, err := runAndRender(ctx, merged, ev, names, runner, cfg.Workers)
	if err != nil {
		return rep, fmt.Errorf("chaostest: final run: %w", err)
	}

	quarantined, _ := filepath.Glob(ckpt + ".corrupt-*")
	rep.Quarantined = len(quarantined)
	rep.Identical = final == golden
	if !rep.Identical {
		return rep, fmt.Errorf("chaostest: final report differs from the undisturbed run (%d vs %d bytes): %s",
			len(final), len(golden), firstDiff(golden, final))
	}
	logf(cfg.Log, "chaostest: PASS: byte-identical after %d kills, %d faults, %d corruption(s), %d quarantine(s)",
		rep.Kills, rep.Faults.Total(), rep.Corruptions, rep.Quarantined)
	return rep, nil
}

// runAndRender executes the campaign and renders the named sections in
// order, the same post-execution rendering discipline cmd/experiments
// uses — which is what makes byte comparison meaningful.
func runAndRender(ctx context.Context, spec campaign.Spec, ev campaign.Eval, names []string, runner *sim.Runner, workers int) (string, error) {
	rs, err := campaign.Run(ctx, spec, campaign.Options{Workers: workers, Runner: runner})
	if err != nil {
		return "", err
	}
	if skipped := rs.Skipped(); len(skipped) > 0 {
		return "", fmt.Errorf("chaostest: %d cell(s) skipped on a clean filesystem: %v", len(skipped), skipped)
	}
	var buf bytes.Buffer
	rc := &report.Context{Eval: ev, Results: rs}
	for _, name := range names {
		def, _ := report.Section(name)
		if err := def.Render(&buf, rc); err != nil {
			return "", err
		}
		buf.WriteByte('\n')
	}
	return buf.String(), nil
}

// flipByte flips one seeded bit of one seeded byte of the file at path,
// reporting whether a flip happened (a missing or empty checkpoint is
// not an error — a cycle may die before its first commit).
func flipByte(path string, src *rng.XorShift64Star) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) == 0 {
		return false, err
	}
	pos := rng.Intn(src, len(raw))
	raw[pos] ^= byte(1) << uint(rng.Intn(src, 8))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return false, err
	}
	return true, nil
}

// addStats accumulates chaos counters across cycles.
func addStats(a, b iofault.ChaosStats) iofault.ChaosStats {
	a.TornWrites += b.TornWrites
	a.ShortWrites += b.ShortWrites
	a.WriteErrs += b.WriteErrs
	a.NoSpaceErrs += b.NoSpaceErrs
	a.RenameFails += b.RenameFails
	a.FsyncLosses += b.FsyncLosses
	a.BitFlips += b.BitFlips
	a.Commits += b.Commits
	return a
}

// logf writes one narration line when a log sink is configured.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// firstDiff locates the first divergent line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return "outputs share a common prefix but differ in length"
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
