package sim

import (
	"math"

	"tivapromi/internal/dram"
)

// ThresholdPoint reports one technique's protection margin at one
// Row-Hammer flip threshold. The paper fixes 139 K (DDR3-era, [12]);
// newer devices flip at a small fraction of that, so the sweep shows
// which designs age well. Survival is the probability that a weight-aware
// maximum-rate flood reaches the threshold without the mitigation ever
// protecting the victims — the probe behind Table III's vulnerability
// column, evaluated across thresholds.
type ThresholdPoint struct {
	Technique string
	Threshold uint32
	// Survival is P(no protection within Threshold activations).
	// Deterministic counter techniques report 0 when their (rescaled)
	// trigger threshold fires in time and 1 when it cannot.
	Survival float64
	// Safe applies the Table III criterion at this threshold.
	Safe bool
}

// ThresholdSweep evaluates every paper technique at each flip threshold.
// Counter-based techniques are assumed re-provisioned for the target
// threshold (their trigger thresholds derive from it); the probabilistic
// techniques keep the paper's Pbase — which is exactly why their
// protection thins as thresholds drop.
func ThresholdSweep(p dram.Params, thresholds []uint32) []ThresholdPoint {
	var out []ThresholdPoint
	for _, th := range thresholds {
		pt := p
		pt.FlipThreshold = th
		for _, name := range TechniqueNames() {
			s := analyticSurvival(name, pt)
			out = append(out, ThresholdPoint{
				Technique: name,
				Threshold: th,
				Survival:  s,
				Safe:      s <= SurvivalLimit,
			})
		}
	}
	return out
}

// analyticSurvival extends closedFormSurvival to all nine techniques so
// the sweep needs no Monte-Carlo:
//
//   - the TiVaPRoMi variants and PARA use their exact decision laws;
//   - TWiCe and CRA trigger deterministically at FlipThreshold/4, which a
//     flood always reaches first (survival 0);
//   - ProHit's deterministic per-interval refresh of a promoted victim
//     protects once the victim is promoted — expected within
//     1/(2·insertProb·promoteProb) activations, so survival is the
//     probability promotion never happens in Threshold/2 activations;
//   - MRLoc's victim is queue-resident under a focused flood with a
//     near-head recency weight, a constant per-activation probability.
func analyticSurvival(technique string, p dram.Params) float64 {
	if s, ok := closedFormSurvival(technique, p); ok {
		return s
	}
	threshold := float64(p.FlipThreshold)
	switch technique {
	case "MRLoc":
		// Focused flood: the victim rides near the short queue's head;
		// weight ≈ 2*base*(pos+1)/(Q+1) with pos ≈ 2 of Q = 16.
		perAct := 2.0 * 4608 / math.Exp2(23) * 3 / 17
		return math.Exp(threshold * math.Log1p(-perAct))
	case "ProHit":
		// Promotion chain: insert (1/256) then promote (1/4); once hot,
		// the per-interval refresh is deterministic. Survival = no
		// promotion in the first half of the budget.
		perAct := (1.0 / 256) * (1.0 / 4)
		return math.Exp(threshold / 2 * math.Log1p(-perAct))
	case "TWiCe", "CRA":
		// Counting triggers deterministically at threshold/4 < threshold.
		return 0
	default:
		return math.NaN()
	}
}
