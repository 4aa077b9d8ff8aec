package sim

import (
	"context"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// ExtensionTechniques returns the techniques implemented beyond the
// paper's nine: the adaptive tree of counters its related work surveys
// (CAT), the in-DRAM sampler deployed in commodity DDR4 (TRR), and the
// quadratic-weighting TiVaPRoMi variant its future work invites
// (QuaPRoMi).
func ExtensionTechniques() []string { return []string{"CAT", "TRR", "QuaPRoMi"} }

// ExtVulnReport extends VulnReport with the two attack probes that
// target tracking structures specifically: decoy starvation (TRRespass
// style: flood hotter decoy rows so a tiny sampler never retains the
// aggressors) and spread saturation (the paper's tree critique: fill the
// structure with spread activations before hammering).
type ExtVulnReport struct {
	VulnReport
	// DecoyRatio is the aggressor-protection rate with 12 hotter decoys
	// per aggressor activation relative to a focused attack.
	DecoyRatio float64
	// SaturationRatio is the protection rate after pre-filling the
	// tracking structure with spread activations relative to a focused
	// attack on an idle structure.
	SaturationRatio float64
}

// AnalyzeExtensionCtx runs all probes for one technique (works for the
// paper's nine too; the classification additionally flags decoy or
// saturation collapse), with cooperative cancellation threaded through
// every probe.
func AnalyzeExtensionCtx(ctx context.Context, technique string, p dram.Params, seed uint64) (ExtVulnReport, error) {
	base, err := AnalyzeVulnerabilityCtx(ctx, technique, p, seed)
	if err != nil {
		return ExtVulnReport{}, err
	}
	rep := ExtVulnReport{VulnReport: base}
	rep.DecoyRatio, err = decoyProbe(ctx, technique, p, seed)
	if err != nil {
		return rep, err
	}
	rep.SaturationRatio, err = saturationProbe(ctx, technique, p, seed)
	if err != nil {
		return rep, err
	}
	if !rep.Vulnerable {
		switch {
		case rep.DecoyRatio < RotationLimit:
			rep.Vulnerable = true
			rep.Reason = "decoy rows starve the sampler (TRRespass-style)"
		case rep.SaturationRatio < RotationLimit:
			rep.Vulnerable = true
			rep.Reason = "spread activations saturate the tracking structure"
		}
	}
	return rep, nil
}

// decoyProbe hammers one victim's aggressor pair, optionally interleaving
// 12 decoy activations per aggressor activation, and compares the
// per-aggressor-activation protection rates.
func decoyProbe(ctx context.Context, technique string, p dram.Params, seed uint64) (float64, error) {
	factory, err := mitigation.Lookup(technique)
	if err != nil {
		return 0, err
	}
	victim := p.RowsPerBank / 4
	run := func(decoys int) (float64, error) {
		// Each interval alternates the aggressor pair from its low side,
		// every aggressor activation followed by a fixed small decoy set,
		// so each decoy row runs twice as hot as each aggressor row —
		// exactly what dominates a frequency sampler.
		aggActs := p.MaxActsPerRI/(1+decoys) + 1
		var rows []int
		for i := 0; i < aggActs; i++ {
			rows = append(rows, victim-1+2*(i&1))
			for d := 0; d < decoys; d++ {
				rows = append(rows, p.RowsPerBank/2+2*d)
			}
		}
		a := attack{intervals: p.RefInt, rows: rows, perInterval: len(rows), victims: []int{victim}}
		o, err := a.run(ctx, factory(bankTarget(p), seed), p)
		if err != nil {
			return 0, err
		}
		return float64(o.onAct+o.onRefresh) / float64(aggActs*p.RefInt), nil
	}
	focused, err := run(0)
	if err != nil {
		return 0, err
	}
	if focused == 0 {
		return 0, nil
	}
	decoyed, err := run(12)
	if err != nil {
		return 0, err
	}
	return decoyed / focused, nil
}

// saturationProbe pre-fills the mitigation with one window of activations
// spread over 512 rows (the tree-fill pattern the paper describes), then
// hammers one victim and compares the protection rate with an attack on
// an idle structure.
func saturationProbe(ctx context.Context, technique string, p dram.Params, seed uint64) (float64, error) {
	factory, err := mitigation.Lookup(technique)
	if err != nil {
		return 0, err
	}
	victims := []int{p.RowsPerBank / 4}
	half := p.RefInt / 2
	// Phase 1 (first half window): fill the structure with spread
	// activations — the paper's "fill all the levels of the tree"
	// pattern — or stay idle. Phase 2: hammer the victim, alternating the
	// aggressor pair from its low side each interval, and measure
	// protection.
	var spread []int
	stride := p.RowsPerBank / 512
	for row := 0; ; {
		spread = append(spread, row)
		if row = (row + stride) % p.RowsPerBank; row == 0 {
			break
		}
	}
	hammer := make([]int, p.MaxActsPerRI)
	for i := range hammer {
		hammer[i] = victims[0] - 1 + 2*(i&1)
	}
	run := func(prefill bool) (float64, error) {
		m := factory(bankTarget(p), seed)
		fill := attack{intervals: half, rows: spread, victims: victims}
		if prefill {
			fill.perInterval = p.MaxActsPerRI
		}
		pre, err := fill.run(ctx, m, p)
		if err != nil {
			return 0, err
		}
		hit := attack{start: half, intervals: p.RefInt - half, rows: hammer, perInterval: len(hammer), victims: victims}
		o, err := hit.run(ctx, m, p)
		if err != nil {
			return 0, err
		}
		// Protections by phase-1 activations count; those by phase-1
		// refreshes do not.
		return float64(pre.onAct+o.onAct+o.onRefresh) / float64(o.acts), nil
	}
	clean, err := run(false)
	if err != nil {
		return 0, err
	}
	if clean == 0 {
		return 0, nil
	}
	saturated, err := run(true)
	if err != nil {
		return 0, err
	}
	return saturated / clean, nil
}
