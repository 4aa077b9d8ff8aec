// Package campaign is the declarative experiment layer: every study is a
// Spec — a named grid of cells — executed by one scheduler that routes
// all cells through the hardened sim runner (bounded concurrency, panic
// recovery, retries, per-run deadlines, checkpoint resume) with
// cross-section parallelism and a progress/ETA event stream.
//
// Two kinds of cell exist:
//
//   - sweep cells: (Config, technique, seeds), executed by the group
//     form of sim.Runner.RunSeeds — cells sharing an access stream run
//     as one group that generates it once, and per-seed results are
//     memoized in the checkpoint under each cell's sweep fingerprint;
//   - probe cells: deterministic analyses that are not seed sweeps
//     (flooding, vulnerability, saturation, rotation, latency), executed
//     under sim.RunnerConfig.Do with the same hardening, memoized in the
//     checkpoint under the cell fingerprint.
//
// Results land in a ResultSet keyed by cell, and rendering happens after
// execution, in spec order — so a campaign's output is byte-identical
// whatever the worker count or cell completion order, and a killed
// campaign resumed from its checkpoint reproduces the same bytes.
//
// The paper's whole evaluation (cmd/experiments all) is one merged
// campaign; every future sweep — new mitigations, larger grids,
// distributed backends — plugs into the same Spec/scheduler shape.
package campaign

import (
	"context"
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/sim"
)

// Cell is one schedulable unit of a campaign. Exactly one of the sweep
// fields (Technique/Seeds with Config) or the probe fields (Run, with
// optional NewValue) must be populated; use Spec.AddSweep / AddProbe.
type Cell struct {
	// Key identifies the cell within the campaign and doubles as the
	// checkpoint fingerprint source for probe cells, so it must be
	// stable across processes and must encode every parameter the
	// cell's result depends on. Builders namespace keys by section
	// ("flooding/PARA?...").
	Key string

	// Sweep fields. A sweep cell runs Config across Seeds for Technique
	// under the hardened runner.
	Config    sim.Config
	Technique string
	Seeds     []uint64
	sweep     bool

	// Probe fields. Run computes the probe into the value allocated by
	// NewValue (a pointer, e.g. *sim.FloodResult). NewValue also decodes
	// checkpointed results; a nil NewValue disables probe memoization.
	NewValue func() any
	Run      func(ctx context.Context, v any) error
}

// IsSweep reports whether the cell is a seed sweep (as opposed to a
// probe).
func (c Cell) IsSweep() bool { return c.sweep }

// member is a sweep cell as a member of a stream-sharing group.
func (c Cell) member() sim.Member {
	return sim.Member{Config: c.Config, Technique: c.Technique, Cell: c.Key}
}

// validate reports a structurally unusable cell.
func (c Cell) validate() error {
	if c.Key == "" {
		return fmt.Errorf("campaign: cell with empty key")
	}
	if c.sweep {
		if len(c.Seeds) == 0 {
			return fmt.Errorf("campaign: sweep cell %q has no seeds", c.Key)
		}
		return nil
	}
	if c.Run == nil {
		return fmt.Errorf("campaign: probe cell %q has no Run", c.Key)
	}
	return nil
}

// Spec is a named, ordered grid of cells — one study (one experiment
// section, or a whole merged evaluation).
type Spec struct {
	Name  string
	Cells []Cell
}

// AddSweep appends a seed-sweep cell.
func (s *Spec) AddSweep(key string, cfg sim.Config, technique string, seeds []uint64) {
	s.Cells = append(s.Cells, Cell{
		Key: key, Config: cfg, Technique: technique, Seeds: seeds, sweep: true,
	})
}

// AddProbe appends a probe cell. newValue allocates the (pointer) result
// the probe fills and checkpointed runs decode into.
func (s *Spec) AddProbe(key string, newValue func() any, run func(ctx context.Context, v any) error) {
	s.Cells = append(s.Cells, Cell{Key: key, NewValue: newValue, Run: run})
}

// Merge concatenates specs into one campaign, deduplicating cells by key
// (first occurrence wins), so sections sharing a sweep run it once.
func Merge(name string, specs ...Spec) Spec {
	out := Spec{Name: name}
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, c := range sp.Cells {
			if seen[c.Key] {
				continue
			}
			seen[c.Key] = true
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// Eval carries the evaluation-wide knobs every section builder shares —
// the cmd/experiments flags, as one value.
type Eval struct {
	// Base is the per-run simulation configuration (scaled device,
	// -windows, -paper).
	Base sim.Config
	// SeedsPerPoint is the number of seeds per data point (-seeds).
	SeedsPerPoint int
	// Trials is the flooding trial count (-trials).
	Trials int
	// Probe is the device scale used by the security probes (flooding,
	// vulnerability, thresholds); the paper evaluates them at full
	// Table I scale regardless of the simulation scale.
	Probe dram.Params
	// ProbeSeed drives probe randomness.
	ProbeSeed uint64
	// Thresholds is the flip-threshold sweep (paper value first).
	Thresholds []uint32
}

// DefaultEval mirrors the cmd/experiments flag defaults.
func DefaultEval() Eval {
	return Eval{
		Base:          sim.DefaultConfig(),
		SeedsPerPoint: 5,
		Trials:        25,
		Probe:         dram.PaperParams(),
		ProbeSeed:     7,
		Thresholds:    []uint32{139000, 70000, 35000, 10000},
	}
}

// probeSig is the part of a probe cell key that pins the probe device
// scale: results cached at one scale must never serve another.
func probeSig(p dram.Params) string {
	s := fmt.Sprintf("banks=%d,rows=%d,refint=%d,th=%d,rate=%d",
		p.Banks, p.RowsPerBank, p.RefInt, p.FlipThreshold, p.MaxActsPerRI)
	// Geometry extends the key only when set, so every pre-geometry cell
	// key — and the checkpoints carrying them — stays byte-identical.
	if p.Ranks > 1 || p.BankGroups > 1 {
		s += fmt.Sprintf(",ranks=%d,bg=%d", p.Ranks, p.BankGroups)
	}
	return s
}
