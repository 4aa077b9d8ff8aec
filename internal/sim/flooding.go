package sim

import (
	"context"
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/stats"
)

// FloodResult reports the Section IV flooding experiment for one
// technique: an attacker floods act commands to a single row at the
// maximum DDR4 rate, starting right after the row's refresh (weight 0 —
// the adversarial phase for time-varying weights), and we measure how many
// activations pass before the mitigation first protects the row's
// neighbors.
type FloodResult struct {
	Technique string
	Trials    int
	// MedianActs / P90Acts summarize the acts-to-first-protection
	// distribution; Unprotected counts trials where no protection
	// happened within Cap activations.
	MedianActs  float64
	P90Acts     float64
	Unprotected int
	// SafeBound is the paper's 69 K at full scale: half the flip
	// threshold, accounting for both neighbors being aggressors.
	SafeBound uint64
	Cap       uint64
}

// AllSafe reports whether every trial protected the row before the safe
// bound.
func (f FloodResult) AllSafe() bool {
	return f.Unprotected == 0 && f.P90Acts <= float64(f.SafeBound)
}

// Flood runs the flooding experiment against a registry technique using
// the given device parameters (use dram.PaperParams for paper-scale
// numbers). rate is the per-interval activation rate (≤ MaxActsPerRI).
func Flood(technique string, p dram.Params, rate, trials int, seed uint64) (FloodResult, error) {
	return FloodCtx(context.Background(), technique, p, rate, trials, seed)
}

// FloodCtx is Flood with cooperative cancellation: the flood polls ctx at
// refresh-interval granularity, so an interrupted campaign abandons the
// probe promptly instead of finishing the in-flight trial set.
func FloodCtx(ctx context.Context, technique string, p dram.Params, rate, trials int, seed uint64) (FloodResult, error) {
	if rate <= 0 || rate > p.MaxActsPerRI {
		return FloodResult{}, fmt.Errorf("sim: flood rate %d out of (0, %d]", rate, p.MaxActsPerRI)
	}
	if trials <= 0 {
		return FloodResult{}, fmt.Errorf("sim: trials = %d", trials)
	}
	factory, err := mitigation.Lookup(technique)
	if err != nil {
		return FloodResult{}, err
	}
	res, err := floodWithFactory(ctx, factory, p, rate, trials, seed)
	res.Technique = technique
	return res, err
}

// floodWithFactory is FloodCtx for an explicit factory (ablation studies
// run configurations that are not in the registry).
func floodWithFactory(ctx context.Context, factory mitigation.Factory, p dram.Params, rate, trials int, seed uint64) (FloodResult, error) {
	target := mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
	res := FloodResult{
		Trials:    trials,
		SafeBound: uint64(p.FlipThreshold) / 2,
		Cap:       uint64(p.FlipThreshold) * 2,
	}
	row := p.RowsPerBank / 2
	fr := p.RefreshIntervalOf(row)
	firsts := make([]float64, 0, trials)
	var cmds []mitigation.Command
	for trial := 0; trial < trials; trial++ {
		m := factory(target, seed+uint64(trial)*7919)
		acts := uint64(0)
		protectedAt := uint64(0)
	flood:
		// Start exactly at the row's refresh slot: weight 0, the phase a
		// weight-aware attacker would choose.
		for interval := 0; ; interval++ {
			if interval&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			iv := (fr + interval) % p.RefInt
			for i := 0; i < rate; i++ {
				acts++
				cmds = m.OnActivate(0, row, iv, cmds[:0])
				if protects(cmds, row) {
					protectedAt = acts
					break flood
				}
			}
			cmds = m.OnRefreshInterval(iv, cmds[:0])
			if protects(cmds, row) {
				protectedAt = acts
				break flood
			}
			if iv == p.RefInt-1 {
				m.OnNewWindow()
			}
			if acts >= res.Cap {
				break
			}
		}
		if protectedAt == 0 {
			res.Unprotected++
			continue
		}
		firsts = append(firsts, float64(protectedAt))
	}
	if len(firsts) > 0 {
		res.MedianActs = stats.Median(firsts)
		res.P90Acts = stats.Percentile(firsts, 90)
	}
	return res, nil
}

// protects reports whether any command in cmds restores the potential
// victims of aggressor row (an act_n on the row itself, a one-sided
// neighbor activation, or a direct refresh of row±1).
func protects(cmds []mitigation.Command, row int) bool {
	for _, c := range cmds {
		switch c.Kind {
		case mitigation.ActN, mitigation.ActNOne:
			if c.Row == row {
				return true
			}
		case mitigation.RefreshRow:
			if c.Row == row-1 || c.Row == row+1 {
				return true
			}
		}
	}
	return false
}
