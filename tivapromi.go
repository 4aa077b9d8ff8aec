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
	"io"

	"tivapromi/internal/campaign"
	"tivapromi/internal/core"
	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/iofault"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	_ "tivapromi/internal/mitigation/all" // register every technique
	"tivapromi/internal/obs"
	"tivapromi/internal/serve"
	"tivapromi/internal/sim"
	"tivapromi/internal/stats"
	"tivapromi/internal/workload"
)

// Device-side types.
type (
	// Params describes the simulated DRAM device (Table I).
	Params = dram.Params
	// Device is the simulated DRAM.
	Device = dram.Device
	// FlipEvent records a successful Row-Hammer bit flip.
	FlipEvent = dram.FlipEvent
	// RefreshPolicy decides which rows an auto-refresh interval restores.
	RefreshPolicy = dram.RefreshPolicy
	// Controller is the memory-controller model (Fig. 1).
	Controller = memctrl.Controller
	// ControllerConfig sets the controller's service times.
	ControllerConfig = memctrl.Config
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
	// SimConfig describes one simulation run.
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
	// FaultPoint is one cell of a degradation table.
	FaultPoint = sim.FaultPoint
	// FaultSweepConfig describes a techniques × models × rates campaign.
	FaultSweepConfig = sim.FaultSweepConfig
)

// Crash-consistency types: the checkpoint store writes through an
// injectable filesystem seam (FS), so fault injection reaches the I/O
// layer too. OSFS is the passthrough; ChaosFS injects seed-deterministic
// torn writes, rename failures, fsync loss, and bit flips for torture
// testing (see internal/iofault and internal/chaostest).
type (
	// FS is the filesystem seam the checkpoint writes through.
	FS = iofault.FS
	// OSFS is the real-filesystem passthrough.
	OSFS = iofault.OS
	// ChaosFS injects seed-deterministic I/O faults beneath an FS.
	ChaosFS = iofault.Chaos
	// ChaosFSConfig sets per-operation fault probabilities and the seed.
	ChaosFSConfig = iofault.ChaosConfig
	// ChaosFSStats tallies the faults a ChaosFS injected.
	ChaosFSStats = iofault.ChaosStats
	// CheckpointLoadReport describes what loading a checkpoint found:
	// entries kept, corrupt entries dropped, quarantine.
	CheckpointLoadReport = sim.LoadReport
)

// Robustness sentinels, matchable with errors.Is.
var (
	// ErrStalled marks a run cancelled by the stall watchdog (no
	// heartbeat progress within RunnerConfig.StallTimeout); it classifies
	// as transient and is retried.
	ErrStalled = sim.ErrStalled
	// ErrCheckpointCorrupt marks checkpoint bytes that failed
	// checksum/structure verification (the file is quarantined and every
	// verifiable entry salvaged).
	ErrCheckpointCorrupt = sim.ErrCheckpointCorrupt
	// ErrCheckpointVersion marks a checkpoint of another format version
	// (quarantined whole; its runs re-simulate — there is no migration).
	ErrCheckpointVersion = sim.ErrCheckpointVersion
	// ErrCampaignCellSkipped marks a campaign cell parked by the retry
	// circuit breaker; the root cause stays wrapped underneath.
	ErrCampaignCellSkipped = campaign.ErrCellSkipped
)

// Fault models (see internal/faults for the scenario each one realizes).
const (
	FaultNone        = faults.None
	FaultStateSEU    = faults.StateSEU
	FaultStuckRNG    = faults.StuckRNG
	FaultBiasedRNG   = faults.BiasedRNG
	FaultPeriodicRNG = faults.PeriodicRNG
	FaultDropActN    = faults.DropActN
	FaultDelayActN   = faults.DelayActN
	FaultWeakCells   = faults.WeakCells
)

// TiVaPRoMi variants.
const (
	LiPRoMi   = core.LiPRoMi
	LoPRoMi   = core.LoPRoMi
	LoLiPRoMi = core.LoLiPRoMi
)

// Maintenance-command kinds, for implementing custom mitigations against
// the Mitigator interface (see examples/custom_mitigation).
const (
	ActN       = mitigation.ActN
	ActNOne    = mitigation.ActNOne
	RefreshRow = mitigation.RefreshRow
)

// MitigationFactory builds a Mitigator for a target device; assign one to
// SimConfig.Factory to run a custom technique through the harness.
type MitigationFactory = mitigation.Factory

// PaperParams returns the paper's full Table I device configuration.
func PaperParams() Params { return dram.PaperParams() }

// ScaledParams returns the fast structure-preserving configuration used
// by default in tests and examples.
func ScaledParams() Params { return dram.ScaledParams() }

// FullDIMMParams returns the whole-DIMM population preset: 1 rank × 8
// DDR4 bank groups × 4 banks × 64 K rows (32 banks, 2 M rows). At this
// scale StateAuto selects the lazily-paged sparse per-row state, so
// heap stays proportional to the rows the workload touches.
func FullDIMMParams() Params { return dram.FullDIMMParams() }

// Per-row state representations (Params.State): auto resolves dense for
// small populations and sparse for full-DIMM-scale ones.
const (
	StateAuto   = dram.StateAuto
	StateDense  = dram.StateDense
	StateSparse = dram.StateSparse
)

// StateMode selects the device's per-row state representation.
type StateMode = dram.StateMode

// DefaultSimConfig returns the standard mixed-load-plus-attacker setup.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Techniques returns the names of all registered mitigation techniques.
func Techniques() []string { return mitigation.Names() }

// PaperTechniques returns the paper's nine techniques in Table III order.
func PaperTechniques() []string { return sim.TechniqueNames() }

// ExtensionTechniques returns the techniques implemented beyond the
// paper: CAT (adaptive counter tree), TRR (commodity in-DRAM sampler)
// and QuaPRoMi (quadratic weighting).
func ExtensionTechniques() []string { return sim.ExtensionTechniques() }

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
func NewAttacker(cfg workload.AttackerConfig) (*Attacker, error) {
	return workload.NewAttacker(cfg)
}

// AttackerConfig describes an attack campaign.
type AttackerConfig = workload.AttackerConfig

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

// LoadCheckpointFS is LoadCheckpoint writing through an explicit
// filesystem seam (nil = the real filesystem); pass a ChaosFS to torture
// the crash-consistency machinery.
func LoadCheckpointFS(path string, fsys FS) (*Checkpoint, error) {
	return sim.LoadCheckpointFS(path, fsys)
}

// ScaleSmokeReport carries the measurements of one full-geometry scale
// smoke run: touched rows, sparse-state and dense-baseline bytes, and
// the live-heap growth across the run.
type ScaleSmokeReport = sim.ScaleSmokeReport

// ScaleSmoke runs cfg once and measures the memory the simulation
// retained; Check on the report asserts the population-scale bounds
// (sparse state ≤ dense/8, heap growth ≤ dense/2).
func ScaleSmoke(ctx context.Context, cfg SimConfig, technique string) (ScaleSmokeReport, error) {
	return sim.ScaleSmoke(ctx, cfg, technique)
}

// ScaleSmokeConfig returns the attacker-dominated workload the scale
// smoke uses on params p.
func ScaleSmokeConfig(p Params) SimConfig { return sim.ScaleSmokeConfig(p) }

// Streaming statistics: single-pass, constant-memory accumulators for
// population-scale sweeps (see internal/stats).
type (
	// StreamMoments accumulates mean/variance/skewness/kurtosis in one
	// pass with exact pairwise merging.
	StreamMoments = stats.Moments
	// StreamQuantile is the P² single-pass quantile sketch.
	StreamQuantile = stats.P2Quantile
	// StreamSummary composes moments with p50/p99 sketches.
	StreamSummary = stats.StreamSummary
)

// NewStreamQuantile returns a P² sketch tracking quantile q ∈ (0, 1).
func NewStreamQuantile(q float64) *StreamQuantile { return stats.NewP2Quantile(q) }

// NewStreamSummary returns a constant-memory moments + p50/p99 summary.
func NewStreamSummary() *StreamSummary { return stats.NewStreamSummary() }

// NewRunner returns a hardened sweep runner with default pool sizing and
// no checkpoint.
func NewRunner() *Runner { return sim.NewRunner() }

// WrapWithFaults wraps a mitigation with a seed-driven fault-injection
// harness realizing the plan's state and RNG faults (see SimConfig.Fault
// to run whole fault campaigns through the harness instead).
func WrapWithFaults(m Mitigator, plan FaultPlan) *FaultHarness { return faults.Wrap(m, plan) }

// FaultModels returns every injecting fault model in presentation order.
func FaultModels() []FaultModel { return faults.Models() }

// FaultSweep runs a techniques × models × rates degradation campaign
// under the hardened runner (nil for defaults).
func FaultSweep(ctx context.Context, r *Runner, sc FaultSweepConfig) ([]FaultPoint, error) {
	return sim.FaultSweep(ctx, r, sc)
}

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
	// CampaignCell is one schedulable unit (a seed sweep or a probe).
	CampaignCell = campaign.Cell
	// CampaignOptions tunes one campaign execution (workers, runner,
	// progress sink).
	CampaignOptions = campaign.Options
	// CampaignProgress is one scheduler event (cell done, ETA).
	CampaignProgress = campaign.Progress
	// CampaignResults holds every executed cell's result, keyed by cell.
	CampaignResults = campaign.ResultSet
	// CampaignEval carries the evaluation-wide knobs shared by the
	// built-in section builders.
	CampaignEval = campaign.Eval
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

// DefaultCampaignEval mirrors the cmd/experiments flag defaults.
func DefaultCampaignEval() CampaignEval { return campaign.DefaultEval() }

// Serving-layer types: run campaigns as a long-running multi-tenant
// HTTP service — per-tenant fair queuing over one shared worker pool,
// admission control with 429 + Retry-After load shedding, cross-tenant
// dedup through the shared checkpoint cache, SSE progress streams with
// crash-safe resume, idempotent submission and restart recovery through
// a write-ahead job journal, and graceful drain (see internal/serve and
// DESIGN.md §11 and §14).
type (
	// CampaignServer is the multi-tenant campaign server. Mount
	// Handler() on an http.Server; call Drain then Close on shutdown.
	CampaignServer = serve.Server
	// ServeConfig tunes one CampaignServer. JournalPath arms the
	// write-ahead job journal: accepted submissions are fsync'd before
	// the 202 answers, duplicate Idempotency-Key POSTs replay the
	// original job, and a restarted server re-admits interrupted jobs.
	ServeConfig = serve.Config
	// ServeLimits bounds what one campaign submission may ask for.
	ServeLimits = serve.Limits
	// ServeRequest is the wire form of one campaign submission.
	ServeRequest = serve.Request
	// ServeJournalReport summarizes a journal replay: entries kept,
	// unverifiable records dropped, orphans ignored, quarantined files.
	ServeJournalReport = serve.JournalLoadReport
)

// NewCampaignServer builds a CampaignServer, loading (or creating) the
// shared cross-tenant result cache when ServeConfig.CheckpointPath is
// set and replaying the write-ahead job journal when
// ServeConfig.JournalPath is set.
func NewCampaignServer(cfg ServeConfig) (*CampaignServer, error) { return serve.New(cfg) }

// Observability types: the dependency-free flight recorder (see
// internal/obs and DESIGN.md §13). Metrics are process-wide atomics
// rendered in Prometheus text exposition; spans record campaign cells,
// run attempts, checkpoint flushes and serve jobs as Chrome trace-event
// JSON. Instrumentation is strictly write-only — simulation results are
// byte-identical with it on or off — and the hot activation path stays
// allocation-free with metrics enabled (sampled flushes, no per-act
// atomics).
type (
	// MetricsRegistry holds named counter/gauge/histogram families.
	MetricsRegistry = obs.Registry
	// MetricCounter is a monotonically increasing atomic counter.
	MetricCounter = obs.Counter
	// MetricGauge is an atomic instantaneous value.
	MetricGauge = obs.Gauge
	// MetricHistogram is a fixed-bucket atomic histogram.
	MetricHistogram = obs.Histogram
	// Tracer records spans into a bounded in-memory buffer.
	Tracer = obs.Tracer
	// TraceSpan is one in-flight span; its zero value is a valid no-op.
	TraceSpan = obs.Span
)

// DefaultMetrics returns the process-wide metric registry every
// instrumented seam writes into; the serve layer exposes it at
// GET /metrics and cmd/experiments dumps it with -metrics-out.
func DefaultMetrics() *MetricsRegistry { return obs.Default }

// WriteMetrics renders the default registry in Prometheus text
// exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// SetMetricsEnabled toggles the sampled hot-path metric flushes.
// Disabling never changes simulation results — instrumentation is
// write-only either way — it only silences the counters.
func SetMetricsEnabled(on bool) { obs.SetMetricsEnabled(on) }

// MetricsEnabled reports whether the sampled metric flushes are on.
func MetricsEnabled() bool { return obs.MetricsEnabled() }

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// SetTracer installs t as the process-wide tracer (nil disables span
// recording; spans become free no-ops).
func SetTracer(t *Tracer) { obs.SetTracer(t) }

// CurrentTracer returns the installed tracer, or nil when tracing is
// off.
func CurrentTracer() *Tracer { return obs.CurrentTracer() }

// StartSpan opens a span on the installed tracer (a no-op Span when
// tracing is off). End it to record the duration.
func StartSpan(name, category string, kv ...string) TraceSpan {
	return obs.StartSpan(name, category, kv...)
}

// SetObsEventSink directs the structured key=value event log
// (retry/breaker/DEGRADED/quarantine transitions) to w; nil disables
// it.
func SetObsEventSink(w io.Writer) { obs.SetEventSink(w) }
