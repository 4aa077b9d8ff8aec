package sim

import (
	"slices"
	"sync"

	"tivapromi/internal/faults"
	"tivapromi/internal/mitigation"
)

// FaultPoint is one cell of a degradation table: one technique under one
// fault model at one rate, averaged over the sweep's seeds.
type FaultPoint struct {
	Technique   string
	Model       faults.Model
	Rate        float64
	Flips       float64 // mean bit flips per run
	OverheadPct float64 // mean act_n overhead (%)
	FPRPct      float64 // mean false-positive rate (%)
	Injected    float64 // mean state faults applied per run
	Dropped     float64 // mean mitigation commands dropped per run
	Delayed     float64 // mean mitigation commands delayed per run
	Errors      int     // seeds that failed (panic, timeout, cancellation)
}

// FaultSweepConfig describes one degradation campaign.
type FaultSweepConfig struct {
	// Base is the simulation configuration swept; its Fault field is
	// overwritten per point.
	Base Config
	// Techniques are the mitigations to degrade (registry names).
	Techniques []string
	// Models are the fault mechanisms to apply. A leading faults.None
	// yields the healthy baseline row.
	Models []faults.Model
	// Rates are the per-event fault probabilities swept for each model.
	Rates []float64
	// Seeds are the simulation seeds averaged per point.
	Seeds []uint64
	// FaultSeed derives the injector randomness (combined per run with
	// the simulation seed inside RunCtx, so every (sim seed, fault seed)
	// pair is bit-reproducible).
	FaultSeed uint64
}

// FaultCell names one cell of a degradation grid: one technique under
// one fault model at one rate.
type FaultCell struct {
	Technique string
	Model     faults.Model
	Rate      float64
}

// CellConfig returns the simulation configuration for one grid cell.
func (sc FaultSweepConfig) CellConfig(c FaultCell) Config {
	cfg := sc.Base
	cfg.Fault = faults.Plan{Model: c.Model, Rate: c.Rate, Seed: sc.FaultSeed}
	return cfg
}

// Cells enumerates the techniques × models × rates grid in deterministic
// row-major order (technique, then model, then rate). The None model
// contributes a single rate-0 baseline cell per technique regardless of
// the configured rates.
func (sc FaultSweepConfig) Cells() []FaultCell {
	rates := sc.Rates
	if len(rates) == 0 {
		rates = []float64{0}
	}
	var cells []FaultCell
	for _, tech := range sc.Techniques {
		for _, model := range sc.Models {
			r := rates
			if model == faults.None {
				r = []float64{0}
			}
			for _, rate := range r {
				cells = append(cells, FaultCell{Technique: tech, Model: model, Rate: rate})
			}
		}
	}
	return cells
}

// Canonical returns the grid cell whose results c equals bit for bit:
// c itself, unless its fault plan cannot reach the technique. A state
// upset needs mitigation state to flip (mitigation.StateInjectable) and
// an RNG fault needs a decision source to degrade
// (mitigation.RandSettable); without one the plan injects nothing and c
// is the technique's None baseline. StuckRNG ignores Rate, so every
// stuck-rng cell equals the one at the sweep's first rate. The mapped
// cell is always in Cells(); sweeps simulate only canonical cells.
func (sc FaultSweepConfig) Canonical(c FaultCell) FaultCell {
	if !sc.reaches(c) && slices.Contains(sc.Models, faults.None) {
		return FaultCell{Technique: c.Technique, Model: faults.None}
	}
	if c.Model == faults.StuckRNG && c.Rate > 0 && len(sc.Rates) > 0 && sc.Rates[0] > 0 {
		c.Rate = sc.Rates[0]
	}
	return c
}

// reaches reports whether c's fault plan can act on its technique, by
// asking which fault seams the technique's instances expose.
func (sc FaultSweepConfig) reaches(c FaultCell) bool {
	switch c.Model {
	case faults.StateSEU, faults.StuckRNG, faults.BiasedRNG, faults.PeriodicRNG:
	default:
		return true // command-path and device faults act on every technique
	}
	t := bankTarget(sc.Base.Params)
	var s seam
	switch {
	case sc.Base.Factory != nil:
		s = seamOf(sc.Base.Factory(t, sc.Base.Seed))
	case c.Technique == "":
		return false // an unprotected system has no mitigation to fault
	default:
		key := seamKey{c.Technique, t}
		if v, ok := seams.Load(key); ok {
			s = v.(seam)
			break
		}
		f, err := mitigation.Lookup(c.Technique)
		if err != nil {
			return true // leave the error to the run
		}
		s = seamOf(f(t, sc.Base.Seed))
		seams.Store(key, s)
	}
	if c.Model == faults.StateSEU {
		return s.state
	}
	return s.rand
}

// seam records which fault seams a mitigation exposes.
type seam struct{ state, rand bool }

func seamOf(m mitigation.Mitigator) seam {
	_, state := m.(mitigation.StateInjectable)
	_, rand := m.(mitigation.RandSettable)
	return seam{state, rand}
}

// seams caches the seams of registry techniques by name and target, so
// building and rendering the fault grid does not instantiate every
// technique each time. Registrations cannot be replaced, so an entry
// never goes stale.
var seams sync.Map // seamKey → seam

type seamKey struct {
	tech   string
	target mitigation.Target
}

// FaultPointOf converts one sweep summary into one degradation-table
// cell (exported so the campaign renderer can assemble points from
// independently scheduled cells).
func FaultPointOf(tech string, model faults.Model, rate float64, sum Summary, errs int) FaultPoint {
	n := float64(len(sum.Runs))
	mean := func(total uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / n
	}
	return FaultPoint{
		Technique:   tech,
		Model:       model,
		Rate:        rate,
		Flips:       mean(uint64(sum.TotalFlips)),
		OverheadPct: sum.Overhead.Mean() * 100,
		FPRPct:      sum.FPR.Mean() * 100,
		Injected:    mean(sum.InjectedFaults),
		Dropped:     mean(sum.DroppedCmds),
		Delayed:     mean(sum.DelayedCmds),
		Errors:      errs,
	}
}
