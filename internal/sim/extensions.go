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
	target := mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
	victim := p.RowsPerBank / 4
	run := func(decoys int) (float64, error) {
		m := factory(target, seed)
		victims := map[int]bool{victim: true}
		protections, aggActs := 0, 0
		var cmds []mitigation.Command
		for iv := 0; iv < p.RefInt; iv++ {
			if iv&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			for i := 0; i < p.MaxActsPerRI/(1+decoys)+1; i++ {
				row := victim - 1 + 2*(i&1)
				aggActs++
				cmds = m.OnActivate(0, row, iv, cmds[:0])
				protections += countProtections(cmds, victims)
				// A fixed small decoy set, so each decoy row runs twice
				// as hot as each aggressor row — exactly what dominates a
				// frequency sampler.
				for d := 0; d < decoys; d++ {
					decoy := p.RowsPerBank/2 + 2*d
					cmds = m.OnActivate(0, decoy, iv, cmds[:0])
					protections += countProtections(cmds, victims)
				}
			}
			cmds = m.OnRefreshInterval(iv, cmds[:0])
			protections += countProtections(cmds, victims)
		}
		return float64(protections) / float64(aggActs), nil
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
	target := mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
	victim := p.RowsPerBank / 4
	run := func(prefill bool) (float64, error) {
		m := factory(target, seed)
		victims := map[int]bool{victim: true}
		protections, acts := 0, 0
		var cmds []mitigation.Command
		stride := p.RowsPerBank / 512
		pos := 0
		half := p.RefInt / 2
		for iv := 0; iv < p.RefInt; iv++ {
			if iv&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			for i := 0; i < p.MaxActsPerRI; i++ {
				// Phase 1 (first half window): fill the structure with
				// spread activations — the paper's "fill all the levels
				// of the tree" pattern. Phase 2: hammer the victim and
				// measure protection.
				if iv < half {
					if !prefill {
						continue
					}
					row := (pos * stride) % p.RowsPerBank
					pos++
					cmds = m.OnActivate(0, row, iv, cmds[:0])
					protections += countProtections(cmds, victims)
					continue
				}
				row := victim - 1 + 2*(i&1)
				acts++
				cmds = m.OnActivate(0, row, iv, cmds[:0])
				protections += countProtections(cmds, victims)
			}
			cmds = m.OnRefreshInterval(iv, cmds[:0])
			if iv >= half {
				protections += countProtections(cmds, victims)
			}
		}
		return float64(protections) / float64(acts), nil
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
