package chaostest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tivapromi/internal/campaign"
	"tivapromi/internal/iofault"
	"tivapromi/internal/rng"
	"tivapromi/internal/serve"
	"tivapromi/internal/sim"
)

// Report summarizes one campaign torture run.
type Report struct {
	// Cycles is the number of kill/resume cycles executed.
	Cycles int
	// Kills counts cycles the kill switch actually fired in (a cycle
	// whose campaign finished before its kill ordinal counts as a
	// survivor, not a kill).
	Kills int
	// Corrupt reports that the run flipped checkpoint bytes between
	// cycles (Config.Corrupt); Corruptions counts the flips applied.
	Corrupt     bool
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

// Check asserts the campaign torture contract on a finished report.
func (r Report) Check() error {
	switch {
	case r.GoldenBytes == 0:
		return fmt.Errorf("chaostest: golden report is empty")
	case !r.Identical:
		return fmt.Errorf("chaostest: final resumed report is not byte-identical to the golden run")
	case r.Kills == 0:
		return fmt.Errorf("chaostest: no cycle of %d was killed: the torture ran nothing but clean passes", r.Cycles)
	case r.Corrupt && r.Corruptions == 0:
		return fmt.Errorf("chaostest: corrupting torture run flipped no bytes")
	case r.Corrupt && r.Quarantined == 0:
		// The deliberate byte flips alone guarantee quarantined corpses.
		return fmt.Errorf("chaostest: %d corruption(s) left no quarantined checkpoint behind", r.Corruptions)
	}
	return nil
}

// Run executes the campaign torture protocol:
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
// harness exists for — the final report was not byte-identical. The
// rest of the contract is Report.Check.
func Run(ctx context.Context, cfg Config) (Report, error) {
	rep := Report{Corrupt: cfg.Corrupt}
	cycles := cfg.Cycles
	if cycles <= 0 {
		cycles = 3
	}
	merged, _, err := serve.BuildCampaign(serve.Request{Sections: sections}, TestScaleEval(), serve.Limits{})
	if err != nil {
		return rep, fmt.Errorf("chaostest: %w", err)
	}
	dir, cleanup, err := workDir(cfg.Dir)
	if err != nil {
		return rep, err
	}
	defer cleanup()
	ckpt := filepath.Join(dir, "checkpoint.json")
	master := rng.NewXorShift64Star(cfg.Seed ^ 0xc4a057e57)

	// Phase 1: the undisturbed reference.
	logf(cfg.Log, "chaostest: reference run (%d cells)", len(merged.Cells))
	golden, err := render(ctx, sections, campaign.Options{Workers: cfg.Workers})
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
		// Armed before the load: the load-time salvage rewrite is a
		// commit too.
		kill := arm(fsys, killAt, false, false)
		ck, err := sim.LoadCheckpointFS(ckpt, fsys)
		if err != nil {
			// The chaos FS can fail even the load-time salvage rewrite;
			// the damaged original is already quarantined, so the next
			// cycle simply starts from an empty checkpoint. That is the
			// torture working, not the torture failing.
			logf(cfg.Log, "chaostest: cycle %d: checkpoint load under faults: %v", cycle+1, err)
			rep.Faults = addStats(rep.Faults, fsys.Stats())
			continue
		}
		if note := ck.LoadReport().Note(); note != "" {
			logf(cfg.Log, "chaostest: cycle %d: checkpoint: %s", cycle+1, note)
		}
		runner := sim.NewRunner()
		runner.Checkpoint = ck
		var runErr error
		killed, err := life(ctx, kill, nil, func(ctx context.Context) {
			_, runErr = campaign.Run(ctx, merged, campaign.Options{
				Workers: cfg.Workers,
				Runner:  runner,
				// Write faults surface as cell-level checkpoint errors; a
				// generous budget keeps the campaign fighting through
				// them until the kill lands.
				RetryBudget:  10 * len(merged.Cells),
				BreakerAfter: 6,
				RetryBackoff: 1,
				RetrySeed:    cfg.Seed,
			})
		})
		// The kill's own cancel is expected; only the caller's context
		// dying aborts the torture.
		if err != nil {
			return rep, err
		}
		if killed {
			rep.Kills++
		}
		stats := fsys.Stats()
		rep.Faults = addStats(rep.Faults, stats)
		logf(cfg.Log, "chaostest: cycle %d: killAt=%d killed=%v faults=%d commits=%d err=%v",
			cycle+1, killAt, killed, stats.Total(), stats.Commits, runErr)

		if cfg.Corrupt {
			flipped, err := flipByte(ckpt, master)
			if err != nil {
				return rep, fmt.Errorf("chaostest: cycle %d: corrupt checkpoint: %w", cycle+1, err)
			}
			if flipped {
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
	final, err := render(ctx, sections, campaign.Options{Workers: cfg.Workers, Runner: runner})
	if err != nil {
		return rep, fmt.Errorf("chaostest: final run: %w", err)
	}

	_, rep.Quarantined, _ = postMortem(ckpt)
	mismatch := diff(golden, final)
	rep.Identical = mismatch == ""
	if !rep.Identical {
		return rep, fmt.Errorf("chaostest: final report differs from the undisturbed run: %s", mismatch)
	}
	logf(cfg.Log, "chaostest: PASS: byte-identical after %d kills, %d faults, %d corruption(s), %d quarantine(s)",
		rep.Kills, rep.Faults.Total(), rep.Corruptions, rep.Quarantined)
	return rep, nil
}

// flipByte flips one seeded bit of one seeded byte of the file at path,
// reporting whether a flip happened. A missing or empty checkpoint is
// not an error — a cycle may die before its first commit.
func flipByte(path string, src *rng.XorShift64Star) (bool, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || err == nil && len(raw) == 0 {
		return false, nil
	}
	if err != nil {
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
