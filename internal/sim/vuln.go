package sim

import (
	"context"
	"math"

	"tivapromi/internal/core"
	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// VulnReport reproduces Table III's "Vulnerable to Attack" column from
// measurable probes instead of a hand-entered list:
//
//  1. Flooding survival — the probability that a weight-aware flood
//     (single row, maximum rate, started at weight 0) reaches the flip
//     threshold without the mitigation ever protecting the victims. For
//     the probabilistic techniques this is computed exactly from their
//     decision laws; for the table/counter techniques a Monte-Carlo flood
//     confirms deterministic protection. LiPRoMi's slow linear ramp is the
//     only technique whose survival stays above the threshold — the
//     Section III-A weakness.
//  2. Rotation evasion — the attacker rotates over more victims than the
//     mitigation's tracking structure holds, per activation, while still
//     delivering a dangerous per-victim rate. The ratio of protective
//     commands per aggressor activation (rotating vs. focused) collapses
//     to ~0 when the tracking thrashes; MRLoc's small locality queue is
//     the technique this catches.
//  3. Escalation — techniques declare (mitigation.Escalation) whether
//     their per-victim protection intensifies as an attack proceeds.
//     PARA and MRLoc apply a static base probability forever, which is
//     what makes them vulnerable to the scheduled multi-aggressor
//     patterns of Son et al. [17]; the escalation tests in their packages
//     back the declaration with measurements.
type VulnReport struct {
	Technique     string
	FloodSurvival float64 // probe 1: P(no protection within FlipThreshold acts)
	RotationRatio float64 // probe 2: rotating/focused protection rate
	NonEscalating bool    // probe 3: static probability, no escalation
	Vulnerable    bool
	Reason        string
}

// Vulnerability thresholds: survival of a weight-aware flood above
// SurvivalLimit, or a rotating attack retaining less than RotationLimit of
// the focused protection rate, classifies a technique as vulnerable.
const (
	SurvivalLimit = 3e-4
	RotationLimit = 0.1
)

// AnalyzeVulnerability runs the three probes for one technique at the
// given (typically paper-scale) parameters.
func AnalyzeVulnerability(technique string, p dram.Params, seed uint64) (VulnReport, error) {
	return AnalyzeVulnerabilityCtx(context.Background(), technique, p, seed)
}

// AnalyzeVulnerabilityCtx is AnalyzeVulnerability with cooperative
// cancellation threaded through the flood and rotation probes.
func AnalyzeVulnerabilityCtx(ctx context.Context, technique string, p dram.Params, seed uint64) (VulnReport, error) {
	rep := VulnReport{Technique: technique}

	surv, err := floodSurvival(ctx, technique, p, seed)
	if err != nil {
		return rep, err
	}
	rep.FloodSurvival = surv

	ratio, nonEsc, err := rotationProbe(ctx, technique, p, seed)
	if err != nil {
		return rep, err
	}
	rep.RotationRatio = ratio
	rep.NonEscalating = nonEsc

	switch {
	case rep.FloodSurvival > SurvivalLimit:
		rep.Vulnerable = true
		rep.Reason = "weight-aware flooding leaves a non-negligible survival tail"
	case rep.RotationRatio < RotationLimit:
		rep.Vulnerable = true
		rep.Reason = "victim rotation thrashes the tracking structure"
	case rep.NonEscalating:
		rep.Vulnerable = true
		rep.Reason = "static probability without escalation (sequential-aggressor attacks, [17])"
	default:
		rep.Reason = "no probe succeeded"
	}
	return rep, nil
}

// floodSurvival computes probe 1. The TiVaPRoMi variants and PARA have
// closed-form survival products (their per-decision probabilities are
// deterministic functions of time); the remaining techniques are floods
// with Monte-Carlo confirmation (they protect deterministically or at
// rates whose tails vanish, so 64 trials resolve them).
func floodSurvival(ctx context.Context, technique string, p dram.Params, seed uint64) (float64, error) {
	rate := p.MaxActsPerRI
	threshold := float64(p.FlipThreshold)
	pbase := math.Exp2(-float64(core.ProbBits(p.RefInt)))
	intervals := int(threshold/float64(rate)) + 1

	logSurvive := func(weightAt func(j int) float64, perInterval bool) float64 {
		ls := 0.0
		acts := 0.0
		for j := 0; j < intervals; j++ {
			w := weightAt(j)
			if perInterval {
				ls += math.Log1p(-math.Min(w*pbase, 1-1e-15))
			} else {
				n := math.Min(float64(rate), threshold-acts)
				ls += n * math.Log1p(-math.Min(w*pbase, 1-1e-15))
				acts += n
			}
		}
		return math.Exp(ls)
	}

	switch technique {
	case "LiPRoMi":
		return logSurvive(func(j int) float64 { return float64(j) }, false), nil
	case "LoPRoMi", "LoLiPRoMi":
		// Until the first trigger LoLiPRoMi behaves exactly like LoPRoMi
		// (the linear path requires a history hit).
		return logSurvive(func(j int) float64 { return float64(core.LogWeight(j)) }, false), nil
	case "QuaPRoMi":
		return logSurvive(func(j int) float64 {
			return float64(core.QuadWeight(j, p.RefInt))
		}, false), nil
	case "CaPRoMi":
		// One collective decision per interval with p = cnt * w_log * Pbase.
		return logSurvive(func(j int) float64 {
			return float64(rate) * float64(core.LogWeight(j))
		}, true), nil
	case "PARA":
		// Each act triggers with p = RefInt*Pbase and protects a given
		// victim only when the random side points at it.
		perAct := float64(p.RefInt) * pbase / 2
		return math.Exp(threshold * math.Log1p(-perAct)), nil
	}

	// Monte-Carlo for the tracking/counter techniques.
	fr, err := FloodCtx(ctx, technique, p, rate, 64, seed)
	if err != nil {
		return 0, err
	}
	if fr.Unprotected > 0 {
		return 1, nil
	}
	if fr.P90Acts <= threshold/2 {
		return 0, nil
	}
	return float64(fr.Unprotected) / float64(fr.Trials), nil
}

// rotationProbe computes probe 2 (and reports non-escalation for probe 3).
// Focused: one victim's aggressor pair hammered a full window. Rotating:
// eight victims' pairs interleaved per activation at the same total rate —
// per-victim traffic still far above the danger rate.
func rotationProbe(ctx context.Context, technique string, p dram.Params, seed uint64) (ratio float64, nonEscalating bool, err error) {
	factory, err := mitigation.Lookup(technique)
	if err != nil {
		return 0, false, err
	}
	target := mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
	if esc, ok := factory(target, seed).(mitigation.Escalation); ok {
		nonEscalating = !esc.EscalatesUnderAttack()
	}

	run := func(victims []int) (float64, error) {
		m := factory(target, seed)
		// Aggressor list: both neighbors of every victim, interleaved.
		var rows []int
		for _, v := range victims {
			rows = append(rows, v-1, v+1)
		}
		victimSet := map[int]bool{}
		for _, v := range victims {
			victimSet[v] = true
		}
		protections, acts := 0, 0
		var cmds []mitigation.Command
		pos := 0
		for iv := 0; iv < p.RefInt; iv++ {
			if iv&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			for i := 0; i < p.MaxActsPerRI; i++ {
				row := rows[pos%len(rows)]
				pos++
				acts++
				cmds = m.OnActivate(0, row, iv, cmds[:0])
				protections += countProtections(cmds, victimSet)
			}
			cmds = m.OnRefreshInterval(iv, cmds[:0])
			protections += countProtections(cmds, victimSet)
		}
		return float64(protections) / float64(acts), nil
	}

	base := p.RowsPerBank / 4
	focused, err := run([]int{base})
	if err != nil {
		return 0, nonEscalating, err
	}
	spread := make([]int, 8)
	for i := range spread {
		spread[i] = base + i*64
	}
	rotating, err := run(spread)
	if err != nil {
		return 0, nonEscalating, err
	}
	if focused == 0 {
		// No protections even when focused: treat as fully evaded.
		return 0, nonEscalating, nil
	}
	return rotating / focused, nonEscalating, nil
}

// countProtections counts commands that restore one of the victims.
func countProtections(cmds []mitigation.Command, victims map[int]bool) int {
	n := 0
	for _, c := range cmds {
		switch c.Kind {
		case mitigation.ActN:
			if victims[c.Row-1] || victims[c.Row+1] {
				n++
			}
		case mitigation.ActNOne:
			if victims[c.Row+int(c.Side)] {
				n++
			}
		case mitigation.RefreshRow:
			if victims[c.Row] {
				n++
			}
		}
	}
	return n
}
