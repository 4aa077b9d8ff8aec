// Package trr models an in-DRAM Target Row Refresh sampler, the
// mitigation actually shipped in commodity DDR4 — included as an
// extension baseline beyond the paper's nine techniques.
//
// TRR keeps a tiny per-bank sampler: activations are sampled with a small
// probability into a handful of frequency-counting slots (replacing the
// coldest slot), and on every refresh interval the device refreshes the
// neighbors of the hottest sampled row. Because the paper's act_n-style
// command is already the refresh primitive here, TRR slots directly into
// the same harness.
//
// Its real-world weakness (TRRespass, Frigo et al.) is structural and
// reproduces here measurably: the sampler has so few slots that an
// attacker interleaving decoy rows at a higher rate than the true
// aggressors evicts or outweighs them, starving the aggressors of
// refreshes — see the package tests.
package trr

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Config parameterizes the sampler.
type Config struct {
	// Entries is the per-bank sampler size (real implementations are
	// believed to track a handful of rows).
	Entries int
	// SampleWeight is the fixed-point (at ProbBits) probability of
	// sampling an activation into the tracker.
	SampleWeight uint64
	// ProbBits is the sampler's comparator resolution.
	ProbBits uint
	// RowBits is the row-address width for storage accounting.
	RowBits int
}

// DefaultConfig returns a plausible DDR4-era sampler: 4 slots, 1/16
// sampling.
func DefaultConfig() Config {
	return Config{Entries: 4, SampleWeight: 1 << 19, ProbBits: 23, RowBits: 17}
}

// TRR is the mitigation state. Create instances with New.
type TRR struct {
	cfg   Config
	banks []sampler
	bern  *rng.Bernoulli
	src   *rng.LFSR32
	seed  uint64
}

type slot struct {
	row int32
	cnt uint32
}

type sampler struct {
	slots []slot
}

// New returns a TRR instance for the given bank count.
func New(banks int, cfg Config, seed uint64) *TRR {
	t := &TRR{cfg: cfg, banks: make([]sampler, banks), seed: seed}
	t.Reset()
	return t
}

// Factory adapts New to the registry signature.
func Factory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return New(t.Banks, DefaultConfig(), seed)
}

// Name implements mitigation.Mitigator.
func (t *TRR) Name() string { return "TRR" }

// OnActivate implements mitigation.Mitigator: probabilistic sampling into
// the frequency tracker.
func (t *TRR) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	s := &t.banks[bank]
	for i := range s.slots {
		if s.slots[i].row == int32(row) {
			s.slots[i].cnt++
			return cmds
		}
	}
	if !t.bern.Trigger(t.cfg.SampleWeight) {
		return cmds
	}
	// Insert, replacing the coldest slot.
	if len(s.slots) < t.cfg.Entries {
		s.slots = append(s.slots, slot{row: int32(row), cnt: 1})
		return cmds
	}
	min := 0
	for i := 1; i < len(s.slots); i++ {
		if s.slots[i].cnt < s.slots[min].cnt {
			min = i
		}
	}
	s.slots[min] = slot{row: int32(row), cnt: 1}
	return cmds
}

// OnRefreshInterval implements mitigation.Mitigator: piggyback a
// neighbor refresh of the hottest sampled row on the auto-refresh, then
// forget it.
func (t *TRR) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	for b := range t.banks {
		s := &t.banks[b]
		if len(s.slots) == 0 {
			continue
		}
		max := 0
		for i := 1; i < len(s.slots); i++ {
			if s.slots[i].cnt > s.slots[max].cnt {
				max = i
			}
		}
		row := int(s.slots[max].row)
		last := len(s.slots) - 1
		s.slots[max] = s.slots[last]
		s.slots = s.slots[:last]
		cmds = append(cmds, mitigation.Command{Kind: mitigation.ActN, Bank: b, Row: row})
	}
	return cmds
}

// OnNewWindow implements mitigation.Mitigator.
func (t *TRR) OnNewWindow() {
	for b := range t.banks {
		t.banks[b].slots = t.banks[b].slots[:0]
	}
}

// Reset implements mitigation.Mitigator.
func (t *TRR) Reset() {
	for b := range t.banks {
		t.banks[b].slots = nil
	}
	t.src = rng.NewLFSR32(t.seed ^ 0x7122)
	t.bern = rng.NewBernoulli(t.src, t.cfg.ProbBits)
}

// TableBytesPerBank implements mitigation.Mitigator.
func (t *TRR) TableBytesPerBank() int { return t.cfg.TableBytes() }

// TableBytes returns the per-bank storage of the sampler: a row address
// and a 16-bit count per slot.
func (c Config) TableBytes() int { return c.Entries * (c.RowBits + 16) / 8 }

// TableBytes implements mitigation.Sizer for Factory's configuration.
func TableBytes(mitigation.Target) int { return DefaultConfig().TableBytes() }

// EscalatesUnderAttack implements mitigation.Escalation: the frequency
// counts escalate — but only for rows that survive in the tiny sampler,
// which is exactly what a decoy attack prevents.
func (t *TRR) EscalatesUnderAttack() bool { return true }

// ActCycles implements mitigation.CycleModel.
func (t *TRR) ActCycles() int { return t.cfg.Entries + 2 }

// RefCycles implements mitigation.CycleModel.
func (t *TRR) RefCycles() int { return t.cfg.Entries + 1 }

// Tracked returns the sampled rows of a bank (tests).
func (t *TRR) Tracked(bank int) []int {
	var rows []int
	for _, s := range t.banks[bank].slots {
		rows = append(rows, int(s.row))
	}
	return rows
}

func init() { mitigation.Register("TRR", Factory, TableBytes) }
