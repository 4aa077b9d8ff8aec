package campaign

import (
	"context"
	"fmt"

	"tivapromi/internal/core"
	"tivapromi/internal/faults"
	"tivapromi/internal/sim"
)

// Seed bases keep every section's sweep statistically independent while
// staying byte-for-byte reproducible across runs and refactors; they are
// the constants the pre-campaign drivers used.
const (
	seedBaseTable3     = 1000
	seedBaseFig4       = 2000
	seedBasePolicies   = 3000
	seedBaseAggressors = 4000
	seedBaseAblation   = 5000
	seedBaseExtensions = 6000
	seedBaseFaults     = 8000

	// faultSeed derives the fault injector randomness for FaultsSpec.
	faultSeed = 0xfa0175

	// pbaseFloodTrials is the trial count of the Pbase ablation's
	// security probe (small: each trial floods to the flip threshold).
	pbaseFloodTrials = 9
)

// AblationVariant is the Fig. 2 variant the ablation studies sweep
// around (the paper's preferred configuration).
const AblationVariant = core.LoLiPRoMi

// HistorySizes, CounterSizes and PbaseDeltas are the ablation grids.
var (
	HistorySizes = []int{4, 8, 16, 32, 64, 128}
	CounterSizes = []int{16, 32, 64, 128}
	PbaseDeltas  = []int{-2, -1, 0, 1, 2}
)

// AggressorCounts is the fixed-aggressor sweep grid.
var AggressorCounts = []int{1, 2, 4, 8, 12, 16, 20}

// FaultTechniques and FaultRates define the degradation grid.
var (
	FaultTechniques = []string{"PARA", "TWiCe", "CRA", "CaPRoMi", "LoLiPRoMi"}
	FaultRates      = []float64{1e-4, 1e-3, 1e-2}
)

// ---- Table I ----------------------------------------------------------

// Table1TraceKey is the probe cell holding the unmitigated trace
// statistics of Table I's measured block.
func Table1TraceKey(ev Eval) string {
	return "table1/trace?cfg=" + sim.Fingerprint(ev.Base, "", nil)
}

// Table1Spec measures the unmitigated trace statistics (Table I's
// static rows are pure rendering and need no cells).
func Table1Spec(ev Eval) Spec {
	s := Spec{Name: "table1"}
	cfg := ev.Base
	s.AddProbe(Table1TraceKey(ev),
		func() any { return new(sim.Result) },
		func(ctx context.Context, v any) error {
			r, err := sim.RunCtx(ctx, cfg, "")
			if err != nil {
				return err
			}
			*v.(*sim.Result) = r
			return nil
		})
	return s
}

// ---- Table II ---------------------------------------------------------

// Table2Spec is empty: the FSM cycle counts are closed-form worst-case
// walks, computed at render time.
func Table2Spec(Eval) Spec { return Spec{Name: "table2"} }

// ---- Table III --------------------------------------------------------

// Table3SweepKey is the overhead/FPR sweep cell for one technique.
func Table3SweepKey(tech string) string { return "table3/sweep?tech=" + tech }

// Table3VulnKey is the paper-scale vulnerability probe cell for one
// technique.
func Table3VulnKey(ev Eval, tech string) string {
	return fmt.Sprintf("table3/vuln?tech=%s&seed=%d&%s", tech, ev.ProbeSeed, probeSig(ev.Probe))
}

// Table3Spec sweeps every paper technique and probes its paper-scale
// vulnerability.
func Table3Spec(ev Eval) Spec {
	s := Spec{Name: "table3"}
	seeds := sim.Seeds(seedBaseTable3, ev.SeedsPerPoint)
	for _, name := range sim.TechniqueNames() {
		s.AddSweep(Table3SweepKey(name), ev.Base, name, seeds)
		s.Cells = append(s.Cells, vulnCell(Table3VulnKey(ev, name), name, ev))
	}
	return s
}

// vulnCell builds a paper-scale vulnerability probe cell.
func vulnCell(key, tech string, ev Eval) Cell {
	p, seed := ev.Probe, ev.ProbeSeed
	return Cell{
		Key:      key,
		NewValue: func() any { return new(sim.VulnReport) },
		Run: func(ctx context.Context, v any) error {
			rep, err := sim.AnalyzeVulnerabilityCtx(ctx, tech, p, seed)
			if err != nil {
				return err
			}
			*v.(*sim.VulnReport) = rep
			return nil
		},
	}
}

// ---- Fig. 4 -----------------------------------------------------------

// Fig4SweepKey is the overhead sweep cell for one technique.
func Fig4SweepKey(tech string) string { return "fig4/sweep?tech=" + tech }

// Fig4Spec sweeps every technique for the size-vs-overhead scatter.
func Fig4Spec(ev Eval) Spec {
	s := Spec{Name: "fig4"}
	seeds := sim.Seeds(seedBaseFig4, ev.SeedsPerPoint)
	for _, name := range sim.TechniqueNames() {
		s.AddSweep(Fig4SweepKey(name), ev.Base, name, seeds)
	}
	return s
}

// ---- Flooding ---------------------------------------------------------

// FloodKey is the paper-scale flooding probe cell for one technique.
func FloodKey(ev Eval, tech string) string {
	return fmt.Sprintf("flooding/flood?tech=%s&rate=%d&trials=%d&seed=%d&%s",
		tech, ev.Probe.MaxActsPerRI, ev.Trials, ev.ProbeSeed, probeSig(ev.Probe))
}

// FloodingSpec probes acts-to-first-protection for every technique at
// the probe scale's maximum activation rate.
func FloodingSpec(ev Eval) Spec {
	s := Spec{Name: "flooding"}
	p, trials, seed := ev.Probe, ev.Trials, ev.ProbeSeed
	for _, name := range sim.TechniqueNames() {
		tech := name
		s.AddProbe(FloodKey(ev, name),
			func() any { return new(sim.FloodResult) },
			func(ctx context.Context, v any) error {
				r, err := sim.FloodCtx(ctx, tech, p, p.MaxActsPerRI, trials, seed)
				if err != nil {
					return err
				}
				*v.(*sim.FloodResult) = r
				return nil
			})
	}
	return s
}

// ---- Refresh-address policies ----------------------------------------

// PolicyTechniques are the TiVaPRoMi variants the policy study sweeps.
var PolicyTechniques = []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"}

// PolicySweepKey is the sweep cell for one (technique, policy) pair.
func PolicySweepKey(tech string, pol sim.PolicyKind) string {
	return fmt.Sprintf("policy/sweep?tech=%s&pol=%s", tech, pol)
}

// PoliciesSpec sweeps each TiVaPRoMi variant under the four
// refresh-address policies of §IV.
func PoliciesSpec(ev Eval) Spec {
	s := Spec{Name: "refreshpolicies"}
	seeds := sim.Seeds(seedBasePolicies, ev.SeedsPerPoint)
	for _, name := range PolicyTechniques {
		for _, pol := range sim.Policies() {
			c := ev.Base
			c.Policy = pol
			if pol == sim.PolicyRemapped {
				// Spare-row replacement on the device side too.
				c.RemapSwaps = 16
			}
			s.AddSweep(PolicySweepKey(name, pol), c, name, seeds)
		}
	}
	return s
}

// ---- Aggressor sweep --------------------------------------------------

// AggressorsSweepKey is the sweep cell for one (aggressor count,
// technique) pair; tech "" is the unmitigated run.
func AggressorsSweepKey(k int, tech string) string {
	if tech == "" {
		tech = "none"
	}
	return fmt.Sprintf("aggressors/sweep?k=%d&tech=%s", k, tech)
}

// AggressorsSpec sweeps a fixed aggressor count per targeted bank for
// the unmitigated system, LoLiPRoMi and PARA.
func AggressorsSpec(ev Eval) Spec {
	s := Spec{Name: "aggressors"}
	seeds := sim.Seeds(seedBaseAggressors, ev.SeedsPerPoint)
	for _, k := range AggressorCounts {
		c := ev.Base
		c.MinAggressors, c.MaxAggressors = k, k
		for _, tech := range []string{"", "LoLiPRoMi", "PARA"} {
			s.AddSweep(AggressorsSweepKey(k, tech), c, tech, seeds)
		}
	}
	return s
}

// ---- Ablation ---------------------------------------------------------

// AblationHistKey is the history-size sweep cell.
func AblationHistKey(size int) string {
	return fmt.Sprintf("ablation/sweep?knob=history&size=%d", size)
}

// AblationCntKey is the counter-size sweep cell.
func AblationCntKey(size int) string {
	return fmt.Sprintf("ablation/sweep?knob=counter&size=%d", size)
}

// AblationPbaseKey is the Pbase-delta sweep cell.
func AblationPbaseKey(delta int) string {
	return fmt.Sprintf("ablation/sweep?knob=pbase&delta=%+d", delta)
}

// AblationPbaseFloodKey is the Pbase ablation's flooding probe cell.
func AblationPbaseFloodKey(ev Eval, delta int) string {
	return fmt.Sprintf("ablation/pbaseflood?v=%d&delta=%+d&trials=%d&seed=%d&%s",
		int(AblationVariant), delta, pbaseFloodTrials,
		sim.Seeds(seedBaseAblation, ev.SeedsPerPoint)[0], probeSig(ev.Base.Params))
}

// AblationSpec sweeps the three design knobs of the ablation study:
// history-table size, counter-table size, and the base probability
// (each Pbase point pairs its overhead sweep with a flooding probe).
func AblationSpec(ev Eval) Spec {
	s := Spec{Name: "ablation"}
	seeds := sim.Seeds(seedBaseAblation, ev.SeedsPerPoint)
	for _, size := range HistorySizes {
		c := ev.Base
		c.Factory = sim.HistoryAblationFactory(AblationVariant, size)
		c.FactoryLabel = sim.HistoryAblationLabel(AblationVariant, size)
		s.AddSweep(AblationHistKey(size), c, "ablation", seeds)
	}
	for _, size := range CounterSizes {
		c := ev.Base
		c.Factory = sim.CounterAblationFactory(size)
		c.FactoryLabel = sim.CounterAblationLabel(size)
		s.AddSweep(AblationCntKey(size), c, "ablation", seeds)
	}
	base, probeSeed := ev.Base, seeds[0]
	for _, delta := range PbaseDeltas {
		c := ev.Base
		c.Factory = sim.PbaseAblationFactory(AblationVariant, delta)
		c.FactoryLabel = sim.PbaseAblationLabel(AblationVariant, delta)
		s.AddSweep(AblationPbaseKey(delta), c, "ablation", seeds)
		d := delta
		s.AddProbe(AblationPbaseFloodKey(ev, delta),
			func() any { return new(float64) },
			func(ctx context.Context, v any) error {
				m, err := sim.PbaseFloodMedian(ctx, base, AblationVariant, d, pbaseFloodTrials, probeSeed)
				if err != nil {
					return err
				}
				*v.(*float64) = m
				return nil
			})
	}
	return s
}

// ---- Extensions -------------------------------------------------------

// ExtTechniques lists the techniques of the extensions study.
func ExtTechniques() []string {
	return append(sim.ExtensionTechniques(), "LoLiPRoMi")
}

// ExtSweepKey is the overhead sweep cell for one extension technique.
func ExtSweepKey(tech string) string { return "extensions/sweep?tech=" + tech }

// ExtVulnKey is the extension vulnerability probe cell for one
// technique.
func ExtVulnKey(ev Eval, tech string) string {
	return fmt.Sprintf("extensions/vuln?tech=%s&seed=%d&%s", tech, ev.ProbeSeed, probeSig(ev.Probe))
}

// ExtensionsSpec sweeps the beyond-the-paper techniques and probes
// their paper-scale attack surfaces (flood, decoy, saturation).
func ExtensionsSpec(ev Eval) Spec {
	s := Spec{Name: "extensions"}
	seeds := sim.Seeds(seedBaseExtensions, ev.SeedsPerPoint)
	p, probeSeed := ev.Probe, ev.ProbeSeed
	for _, name := range ExtTechniques() {
		s.AddSweep(ExtSweepKey(name), ev.Base, name, seeds)
		tech := name
		s.AddProbe(ExtVulnKey(ev, name),
			func() any { return new(sim.ExtVulnReport) },
			func(ctx context.Context, v any) error {
				rep, err := sim.AnalyzeExtensionCtx(ctx, tech, p, probeSeed)
				if err != nil {
					return err
				}
				*v.(*sim.ExtVulnReport) = rep
				return nil
			})
	}
	return s
}

// ---- Latency ----------------------------------------------------------

// LatencyTechniques lists the latency study's rows; "" is the
// unprotected system.
func LatencyTechniques() []string {
	return append([]string{""}, sim.TechniqueNames()...)
}

// LatencyKey is the cycle-accurate latency probe cell for one
// technique ("" for the unprotected system).
func LatencyKey(ev Eval, tech string) string {
	label := tech
	if label == "" {
		label = "none"
	}
	return fmt.Sprintf("latency/probe?tech=%s&cfg=%s", label, sim.Fingerprint(ev.Base, "", nil))
}

// LatencySpec runs the cycle-accurate FR-FCFS scheduler for one window
// per technique.
func LatencySpec(ev Eval) Spec {
	s := Spec{Name: "latency"}
	cfg := ev.Base
	for _, name := range LatencyTechniques() {
		tech := name
		s.AddProbe(LatencyKey(ev, name),
			func() any { return new(sim.LatencyResult) },
			func(ctx context.Context, v any) error {
				r, err := sim.LatencyProbeCtx(ctx, cfg, tech)
				if err != nil {
					return err
				}
				*v.(*sim.LatencyResult) = r
				return nil
			})
	}
	return s
}

// ---- Thresholds -------------------------------------------------------

// ThresholdsSpec is empty: the flip-threshold sweep is closed-form,
// computed at render time from Eval.Probe and Eval.Thresholds.
func ThresholdsSpec(Eval) Spec { return Spec{Name: "thresholds"} }

// ---- Faults -----------------------------------------------------------

// FaultSweepFor assembles the degradation study's sweep configuration
// from the evaluation knobs — the single source both the spec builder
// and the renderer use, so the grid cannot drift between them.
func FaultSweepFor(ev Eval) sim.FaultSweepConfig {
	return sim.FaultSweepConfig{
		Base:       ev.Base,
		Techniques: FaultTechniques,
		Models:     append([]faults.Model{faults.None}, faults.Models()...),
		Rates:      FaultRates,
		Seeds:      sim.Seeds(seedBaseFaults, ev.SeedsPerPoint),
		FaultSeed:  faultSeed,
	}
}

// FaultKey is the sweep cell for one degradation grid cell.
func FaultKey(c sim.FaultCell) string {
	return fmt.Sprintf("faults/sweep?tech=%s&model=%s&rate=%g", c.Technique, c.Model, c.Rate)
}

// FaultsSpec schedules the techniques × fault models × rates
// degradation grid as independent sweep cells — canonical cells only: a
// cell whose plan cannot reach its technique equals another cell bit for
// bit (sim.FaultSweepConfig.Canonical), and the renderer reads that
// cell's result for it.
func FaultsSpec(ev Eval) Spec {
	s := Spec{Name: "faults"}
	sc := FaultSweepFor(ev)
	for _, c := range sc.Cells() {
		if sc.Canonical(c) == c {
			s.AddSweep(FaultKey(c), sc.CellConfig(c), c.Technique, sc.Seeds)
		}
	}
	return s
}
