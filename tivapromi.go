// Package tivapromi is a simulation library for DRAM Row-Hammer
// mitigation research, built around a from-scratch reproduction of
// "TiVaPRoMi: Time-Varying Probabilistic Row-Hammer Mitigation"
// (Nassar, Bauer, Henkel — DATE 2021).
//
// The library bundles:
//
//   - a DDR4-parameterized DRAM device model with refresh windows,
//     refresh-address policies, and a neighbor-disturbance (bit-flip)
//     model;
//   - an open-page memory-controller model with the Row-Hammer interrupt
//     path of the paper's Fig. 1;
//   - nine mitigation techniques: the four TiVaPRoMi variants (LiPRoMi,
//     LoPRoMi, LoLiPRoMi, CaPRoMi) and five baselines from the literature
//     (PARA, ProHit, MRLoc, TWiCe, CRA);
//   - SPEC-like synthetic workloads plus a cache-flush Row-Hammer
//     attacker;
//   - an experiment harness measuring activation overhead,
//     false-positive rate, flips, flooding resistance, and vulnerability,
//     plus an FPGA LUT cost model — everything needed to regenerate the
//     paper's tables and figures (see cmd/experiments).
//
// Quick start:
//
//	cfg := tivapromi.DefaultSimConfig()
//	res, err := tivapromi.RunSimulation(cfg, "LoLiPRoMi")
//	fmt.Printf("overhead %.4f%%, flips %d\n", res.OverheadPct, res.Flips)
//
// Everything here is a façade over the internal packages; the types are
// aliases, so values flow freely between the two layers.
package tivapromi

import (
	"context"

	"tivapromi/internal/campaign"
	"tivapromi/internal/core"
	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	_ "tivapromi/internal/mitigation/all" // register every technique
	"tivapromi/internal/sim"
	"tivapromi/internal/workload"
)

// Device-side types.
type (
	// Params describes the simulated DRAM device (Table I).
	Params = dram.Params
	// Device is the simulated DRAM.
	Device = dram.Device
	// RefreshPolicy decides which rows an auto-refresh interval restores.
	RefreshPolicy = dram.RefreshPolicy
	// Controller is the memory-controller model (Fig. 1).
	Controller = memctrl.Controller
)

// Mitigation-side types.
type (
	// Mitigator is the interface all Row-Hammer mitigations implement.
	Mitigator = mitigation.Mitigator
	// Target describes the protected device to a mitigation factory.
	Target = mitigation.Target
	// Command is a maintenance command emitted by a mitigation.
	Command = mitigation.Command
	// Variant selects a purely probabilistic TiVaPRoMi weighting scheme.
	Variant = core.Variant
	// CoreConfig parameterizes LiPRoMi/LoPRoMi/LoLiPRoMi.
	CoreConfig = core.Config
	// CaConfig parameterizes CaPRoMi.
	CaConfig = core.CaConfig
)

// Harness types.
type (
	// SimConfig describes one simulation run; assign a factory to its
	// Factory field to run a custom Mitigator through the harness (see
	// Example_customMitigation).
	SimConfig = sim.Config
	// SimResult is the outcome of one run.
	SimResult = sim.Result
	// SimSummary aggregates runs across seeds (µ±σ).
	SimSummary = sim.Summary
	// FloodResult reports the Section IV flooding experiment.
	FloodResult = sim.FloodResult
	// VulnReport reproduces Table III's vulnerability column.
	VulnReport = sim.VulnReport
	// Workload generates DRAM access streams.
	Workload = workload.Generator
	// Attacker is the cache-flush Row-Hammer attacker.
	Attacker = workload.Attacker
	// AttackerConfig describes an attack campaign.
	AttackerConfig = workload.AttackerConfig
)

// Hardened-runner and fault-injection types.
type (
	// RunnerConfig tunes the hardened seed-sweep pool (workers, per-run
	// deadline, retries).
	RunnerConfig = sim.RunnerConfig
	// Runner combines the hardened pool with an optional checkpoint.
	Runner = sim.Runner
	// Checkpoint is the JSON store behind resumable sweeps.
	Checkpoint = sim.Checkpoint
	// RunError records one seed's failure inside a sweep.
	RunError = sim.RunError
	// FaultModel identifies one hardware fault mechanism.
	FaultModel = faults.Model
	// FaultPlan describes one fault campaign (model, rate, seed).
	FaultPlan = faults.Plan
	// FaultHarness wraps a Mitigator with seed-driven fault injection.
	FaultHarness = faults.Harness
)

// Fault models (see internal/faults for the scenario each one realizes;
// FaultModels lists them all).
const (
	FaultStateSEU = faults.StateSEU
	FaultStuckRNG = faults.StuckRNG
)

// LoLiPRoMi is the paper's area-optimal TiVaPRoMi variant.
const LoLiPRoMi = core.LoLiPRoMi

// ActNOne is the maintenance command that activates one neighbor of a
// row, for custom mitigations against the Mitigator interface (see
// Example_customMitigation).
const ActNOne = mitigation.ActNOne

// PaperParams returns the paper's full Table I device configuration.
func PaperParams() Params { return dram.PaperParams() }

// ScaledParams returns the fast structure-preserving configuration used
// by default in tests and examples.
func ScaledParams() Params { return dram.ScaledParams() }

// DefaultSimConfig returns the standard mixed-load-plus-attacker setup.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Techniques returns the names of all registered mitigation techniques.
func Techniques() []string { return mitigation.Names() }

// PaperTechniques returns the paper's nine techniques in Table III order.
func PaperTechniques() []string { return sim.TechniqueNames() }

// NewMitigation builds a registered technique by name for a target
// device.
func NewMitigation(name string, t Target, seed uint64) (Mitigator, error) {
	f, err := mitigation.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(t, seed), nil
}

// NewTiVaPRoMi builds one of the purely probabilistic variants directly,
// exposing the concrete type for white-box use.
func NewTiVaPRoMi(v Variant, banks int, cfg CoreConfig, seed uint64) (*core.TiVaPRoMi, error) {
	return core.New(v, banks, cfg, seed)
}

// NewCaPRoMi builds the counter-assisted variant directly.
func NewCaPRoMi(banks int, cfg CaConfig, seed uint64) (*core.CaPRoMi, error) {
	return core.NewCa(banks, cfg, seed)
}

// NewDevice builds a DRAM device; a nil policy defaults to the
// contiguous-block ("neighbors") refresh policy.
func NewDevice(p Params, policy RefreshPolicy) (*Device, error) {
	return dram.New(p, policy)
}

// NewController builds a memory controller over dev with the given
// mitigation (nil for an unprotected system).
func NewController(dev *Device, mit Mitigator) (*Controller, error) {
	return memctrl.New(memctrl.DefaultConfig(), dev, mit)
}

// SPECMix returns the default SPEC-like mixed workload.
func SPECMix(banks, rowsPerBank int, seed uint64) Workload {
	return workload.SPECMix(banks, rowsPerBank, seed)
}

// NewAttacker builds the ramping cache-flush attacker.
func NewAttacker(cfg AttackerConfig) (*Attacker, error) {
	return workload.NewAttacker(cfg)
}

// RunSimulation executes one simulation of a technique ("" for an
// unprotected system).
func RunSimulation(cfg SimConfig, technique string) (SimResult, error) {
	return sim.Run(cfg, technique)
}

// RunSeeds executes RunSimulation across seeds in parallel and aggregates
// mean ± stddev.
func RunSeeds(cfg SimConfig, technique string, seeds []uint64) (SimSummary, error) {
	return sim.RunSeeds(cfg, technique, seeds)
}

// RunSeedsCtx is the hardened sweep: bounded worker pool, panic
// recovery, retries, per-run deadlines, and partial results under
// cancellation. Per-seed failures are returned alongside the summary of
// the seeds that completed.
func RunSeedsCtx(ctx context.Context, rc RunnerConfig, cfg SimConfig, technique string, seeds []uint64) (SimSummary, []*RunError, error) {
	return sim.RunSeedsCtx(ctx, rc, cfg, technique, seeds)
}

// DefaultRunnerConfig returns the standard hardened-pool sizing.
func DefaultRunnerConfig() RunnerConfig { return sim.DefaultRunnerConfig() }

// LoadCheckpoint opens or creates a resumable-sweep checkpoint; assign
// it to a Runner to make killed sweeps continue where they stopped.
// Corrupt files are quarantined and every verifiable entry salvaged; the
// LoadReport on the returned Checkpoint says what happened.
func LoadCheckpoint(path string) (*Checkpoint, error) { return sim.LoadCheckpoint(path) }

// NewRunner returns a hardened sweep runner with default pool sizing and
// no checkpoint.
func NewRunner() *Runner { return sim.NewRunner() }

// WrapWithFaults wraps a mitigation with a seed-driven fault-injection
// harness realizing the plan's state and RNG faults (see SimConfig.Fault
// to run whole fault campaigns through the harness instead).
func WrapWithFaults(m Mitigator, plan FaultPlan) *FaultHarness { return faults.Wrap(m, plan) }

// FaultModels returns every injecting fault model in presentation order.
func FaultModels() []FaultModel { return faults.Models() }

// Seeds returns n deterministic seeds derived from base.
func Seeds(base uint64, n int) []uint64 { return sim.Seeds(base, n) }

// Flood runs the Section IV flooding experiment for one technique.
func Flood(technique string, p Params, rate, trials int, seed uint64) (FloodResult, error) {
	return sim.Flood(technique, p, rate, trials, seed)
}

// AnalyzeVulnerability runs the Table III vulnerability probes for one
// technique.
func AnalyzeVulnerability(technique string, p Params, seed uint64) (VulnReport, error) {
	return sim.AnalyzeVulnerability(technique, p, seed)
}

// Campaign-engine types: declare a study as a Campaign — a named grid of
// seed-sweep and probe cells — and execute every cell through the
// hardened runner with bounded cross-cell parallelism and checkpoint
// resume. Results land in a CampaignResults keyed by cell, so rendering
// is byte-identical whatever the worker count (see internal/campaign).
type (
	// Campaign is a named, ordered grid of cells (one study).
	Campaign = campaign.Spec
	// CampaignOptions tunes one campaign execution (workers, runner,
	// progress sink).
	CampaignOptions = campaign.Options
	// CampaignProgress is one scheduler event (cell done, ETA).
	CampaignProgress = campaign.Progress
	// CampaignResults holds every executed cell's result, keyed by cell.
	CampaignResults = campaign.ResultSet
)

// RunCampaign executes every cell of a campaign through the hardened
// runner with bounded cross-cell parallelism.
func RunCampaign(ctx context.Context, c Campaign, opts CampaignOptions) (*CampaignResults, error) {
	return campaign.Run(ctx, c, opts)
}

// MergeCampaigns concatenates campaigns into one, deduplicating cells by
// key, so studies sharing a sweep run it once.
func MergeCampaigns(name string, cs ...Campaign) Campaign {
	return campaign.Merge(name, cs...)
}
