package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/iofault"
	"tivapromi/internal/report"
	"tivapromi/internal/sim"
)

// evalScale is one evaluation grid: the knobs and the sections to run.
type evalScale struct {
	eval     campaign.Eval
	sections []string
}

// coldEval is `experiments all` at its defaults.
func coldEval() evalScale {
	var names []string
	for _, d := range report.Sections() {
		names = append(names, d.Name)
	}
	return evalScale{eval: campaign.DefaultEval(), sections: names}
}

// durableEval is `experiments -seeds 2 -windows 2 -trials 5 all` without
// the latency section. Its cycle-level scheduler probes take about 12 s
// at any grid size, two thirds of this evaluation; eval-cold carries
// them, and leaving them out here lets a run repeat the cold pass.
func durableEval() evalScale {
	s := coldEval()
	s.eval.SeedsPerPoint = 2
	s.eval.Base.Windows = 2
	s.eval.Trials = 5
	var names []string
	for _, name := range s.sections {
		if name != "latency" {
			names = append(names, name)
		}
	}
	s.sections = names
	return s
}

// plan builds the merged campaign and the renderers, as the CLI does.
func (s evalScale) plan() (campaign.Spec, []report.SectionDef, error) {
	var specs []campaign.Spec
	var defs []report.SectionDef
	for _, name := range s.sections {
		def, ok := report.Section(name)
		if !ok {
			return campaign.Spec{}, nil, fmt.Errorf("unknown section %q", name)
		}
		specs = append(specs, def.Spec(s.eval))
		defs = append(defs, def)
	}
	return campaign.Merge("evaluation", specs...), defs, nil
}

// render renders the sections in order as the CLI does, without an SVG
// sink and with a blank line after every section of a multi-section run.
func render(ev campaign.Eval, rs *campaign.ResultSet, defs []report.SectionDef) ([]byte, error) {
	if skipped := rs.Skipped(); len(skipped) > 0 {
		return nil, fmt.Errorf("%d cell(s) skipped: %v", len(skipped), skipped)
	}
	var buf bytes.Buffer
	rc := &report.Context{Eval: ev, Results: rs}
	for _, d := range defs {
		if err := d.Render(&buf, rc); err != nil {
			return nil, fmt.Errorf("render %s: %w", d.Name, err)
		}
		if len(defs) > 1 {
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

// sweepAccesses counts the accesses the spec's sweep cells simulate.
func sweepAccesses(spec campaign.Spec) uint64 {
	var n uint64
	for _, c := range spec.Cells {
		if c.IsSweep() {
			n += uint64(len(c.Seeds)) * accessesOf(c.Config)
		}
	}
	return n
}

// runEvalCold runs whole cold evaluations: every section merged into one
// campaign on Workers = nproc, no checkpoint, then rendered. golden, when
// non-nil, is the byte-exact expected output.
func runEvalCold(ctx context.Context, env *runEnv, scale evalScale, golden []byte) (*measurement, error) {
	m := &measurement{tailOps: 1}
	var spec campaign.Spec
	var defs []report.SectionDef
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if spec, defs, err = scale.plan(); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
	}
	err := rounds(ctx, env, 1, func(round int) error {
		runSpec, opts := spec, campaign.Options{Workers: env.workers}
		var probe *poolProbe
		if env.lay != nil && round == 0 {
			probe = newPoolProbe(env.lay, env.workers)
			runSpec, opts = probe.instrument(spec, opts)
			probe.begin()
		}
		c0, t0 := cpuTime(), time.Now()
		rs, err := campaign.Run(ctx, runSpec, opts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		out, rerr := render(scale.eval, rs, defs)
		t2, cpu := time.Now(), cpuTime()-c0
		m.attempted++
		switch {
		case rerr != nil:
			m.fail("eval-cold: %v", rerr)
		case golden != nil && !bytes.Equal(out, golden):
			m.fail("eval-cold: output (%d bytes) differs from experiments_output.txt (%d bytes)", len(out), len(golden))
		}
		m.walls = append(m.walls, t2.Sub(t0))
		m.ops = append(m.ops, t2.Sub(t0))
		m.opsCPU += cpu
		m.passCPU += cpu
		m.accesses += sweepAccesses(spec)
		span("bench.evaluation", t0, t2)
		if probe != nil {
			m.check(probe.end(t1, len(spec.Cells)),
				"eval-cold: reconciliation: run and probe time exceeds 1.05 x workers x campaign wall, or a cell never completed")
			env.lay.set("report.render_s", t2.Sub(t1).Seconds())
			span("bench.campaign", t0, t1)
			span("bench.render", t1, t2)
		}
		return nil
	})
	return m, err
}

// runEvalDurable runs rounds of the evaluation against a single-file
// checkpoint: a cold pass that writes a fresh checkpoint, then `restarts`
// warm restarts that each load it, run an all-hit campaign and render, as
// a restarted process does. Each restart starts from a collected heap, as
// a new process would. Every output must equal the cold pass's, and the
// cold pass must equal golden when it is non-nil.
func runEvalDurable(ctx context.Context, env *runEnv, scale evalScale, golden []byte, restarts int) (*measurement, error) {
	m := &measurement{tailOps: restarts}
	var spec campaign.Spec
	var defs []report.SectionDef
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(env.work, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		var err error
		if spec, defs, err = scale.plan(); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if _, err := sim.LoadCheckpointFS(filepath.Join(dir, "checkpoint.json"), nil); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
	}

	err := rounds(ctx, env, 1, func(round int) error {
		dir := filepath.Join(env.work, fmt.Sprintf("round-%d", round))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, "checkpoint.json")
		// The traced pass observes the first round.
		var fsys iofault.FS
		var cfs *countingFS
		runSpec, opts := spec, campaign.Options{Workers: env.workers, Runner: sim.NewRunner()}
		var probe *poolProbe
		if env.lay != nil && round == 0 {
			cfs = newCountingFS("")
			fsys = cfs
			probe = newPoolProbe(env.lay, env.workers)
			runSpec, opts = probe.instrument(spec, opts)
		}
		ck, err := sim.LoadCheckpointFS(path, fsys)
		if err != nil {
			return err
		}
		opts.Runner.Checkpoint = ck
		if probe != nil {
			probe.begin()
		}
		c0, t0 := cpuTime(), time.Now()
		rs, err := campaign.Run(ctx, runSpec, opts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		cold, rerr := render(scale.eval, rs, defs)
		t2 := time.Now()
		m.passCPU += cpuTime() - c0
		m.attempted++
		switch {
		case rerr != nil:
			m.fail("eval-durable: round %d cold pass: %v", round, rerr)
		case golden != nil && !bytes.Equal(cold, golden):
			m.fail("eval-durable: round %d cold pass output (%d bytes) differs from golden/eval-durable.txt (%d bytes)", round, len(cold), len(golden))
		}
		m.walls = append(m.walls, t2.Sub(t0))
		m.accesses += sweepAccesses(spec)
		span("bench.cold-pass", t0, t2)
		if env.updateGolden && round == 0 && rerr == nil {
			if err := writeGolden("eval-durable.txt", cold); err != nil {
				return err
			}
		}
		if probe != nil {
			m.check(probe.end(t1, len(spec.Cells)),
				"eval-durable: reconciliation: run and probe time exceeds 1.05 x workers x campaign wall, or a cell never completed")
			env.lay.set("report.render_s", t2.Sub(t1).Seconds())
			recordCheckpointWrites(env.lay, cfs)
		}

		var loads, runs, renders []time.Duration
		var hits, lookups int64
		readBefore, _, _, _, _ := cfs.ckptSnapshot()
		for i := 0; i < restarts; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.GC()
			c0, r0 := cpuTime(), time.Now()
			ck, err := sim.LoadCheckpointFS(path, fsys)
			if err != nil {
				return err
			}
			r1 := time.Now()
			runner := sim.NewRunner()
			runner.Checkpoint = ck
			rs, err := campaign.Run(ctx, spec, campaign.Options{Workers: env.workers, Runner: runner})
			if err != nil {
				return err
			}
			r2 := time.Now()
			out, rerr := render(scale.eval, rs, defs)
			r3 := time.Now()
			m.opsCPU += cpuTime() - c0
			st := ck.CacheStats()
			misses := st.SweepMisses + st.ProbeMisses
			m.attempted++
			switch {
			case rerr != nil:
				m.fail("eval-durable: round %d restart %d: %v", round, i, rerr)
			case !bytes.Equal(out, cold):
				m.fail("eval-durable: round %d restart %d output differs from the cold pass", round, i)
			case misses != 0:
				m.fail("eval-durable: round %d restart %d missed the checkpoint %d time(s); a restart must not simulate", round, i, misses)
			}
			m.ops = append(m.ops, r3.Sub(r0))
			loads, runs, renders = append(loads, r1.Sub(r0)), append(runs, r2.Sub(r1)), append(renders, r3.Sub(r2))
			hits += st.Hits()
			lookups += st.Hits() + misses
			span("bench.restart.load", r0, r1)
			span("bench.restart.campaign", r1, r2)
			span("bench.restart.render", r2, r3)
		}
		if probe != nil {
			readAfter, _, _, _, _ := cfs.ckptSnapshot()
			env.lay.set("sim.checkpoint.load_ms.p50", median(ms(loads)))
			env.lay.set("sim.checkpoint.read_bytes", float64(readAfter-readBefore)/float64(len(loads)))
			env.lay.set("sim.checkpoint.hit_frac", float64(hits)/float64(lookups))
			env.lay.set("campaign.run_ms.p50", median(ms(runs)))
			env.lay.set("report.render_ms.p50", median(ms(renders)))
		}
		return nil
	})
	return m, err
}
