// Package prohit implements ProHit (Son et al., DAC 2017: "Making DRAM
// Stronger Against Row Hammering"): probabilistic management of small
// hot/cold victim tables.
//
// On every activation, the two victim addresses (neighbors of the
// activated row) are probabilistically inserted into a per-bank cold
// table; a victim hit again while in the cold table is probabilistically
// promoted into the hot table, and hits in the hot table move the entry
// one slot toward the top. At each refresh interval, the top hot entry (if
// any) is refreshed and removed. Tracking sequential multi-aggressor
// patterns is ProHit's strength over PARA; the price (per the TiVaPRoMi
// paper) is the highest activation overhead and false-positive rate of the
// compared techniques.
package prohit

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Config parameterizes ProHit.
type Config struct {
	// RowsPerBank bounds victim addresses.
	RowsPerBank int
	// HotEntries and ColdEntries size the two per-bank tables. The
	// original design uses 4+4.
	HotEntries  int
	ColdEntries int
	// InsertWeight is the fixed-point probability weight (at ProbBits)
	// of inserting a missing victim into the cold table.
	InsertWeight uint64
	// PromoteWeight is the probability weight of promoting on a hit
	// (cold → hot, or one slot up within hot).
	PromoteWeight uint64
	// ProbBits is the comparator resolution.
	ProbBits uint
	// RowBits is the row-address width, for storage accounting.
	RowBits int
}

// DefaultConfig returns the operating point used in the paper's
// comparison: small tables, an insertion probability high enough that the
// hot table's top is usually occupied — which is what drives ProHit's
// characteristic ≈0.6% activation overhead (one refresh per interval per
// bank most of the time).
func DefaultConfig(rowsPerBank int) Config {
	return Config{
		RowsPerBank: rowsPerBank,
		HotEntries:  4,
		ColdEntries: 4,
		// 1/256 insert, 1/4 promote at 23-bit resolution: the operating
		// point where the measured activation overhead on the mixed
		// trace matches the paper's ≈0.6% for ProHit.
		InsertWeight:  1 << 15,
		PromoteWeight: 1 << 21,
		ProbBits:      23,
		RowBits:       17,
	}
}

// ProHit is the mitigation state. Create instances with New.
type ProHit struct {
	cfg   Config
	banks []tables
	bern  *rng.Bernoulli
	src   *rng.LFSR32
	seed  uint64
}

// tables is the per-bank state: hot[0] is the top (next to be refreshed).
type tables struct {
	hot  []int32
	cold []int32
}

// New returns a ProHit instance for the given bank count.
func New(banks int, cfg Config, seed uint64) *ProHit {
	p := &ProHit{cfg: cfg, banks: make([]tables, banks), seed: seed}
	p.Reset()
	return p
}

// Factory adapts New to the registry signature.
func Factory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return New(t.Banks, DefaultConfig(t.RowsPerBank), seed)
}

// Name implements mitigation.Mitigator.
func (p *ProHit) Name() string { return "ProHit" }

// OnActivate implements mitigation.Mitigator.
func (p *ProHit) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	t := &p.banks[bank]
	for _, victim := range [2]int{row - 1, row + 1} {
		if victim < 0 || victim >= p.cfg.RowsPerBank {
			continue
		}
		v := int32(victim)
		if i := index(t.hot, v); i >= 0 {
			// Hot hit: probabilistically move one slot toward the top.
			if i > 0 && p.bern.Trigger(p.cfg.PromoteWeight) {
				t.hot[i-1], t.hot[i] = t.hot[i], t.hot[i-1]
			}
			continue
		}
		if i := index(t.cold, v); i >= 0 {
			// Cold hit: probabilistically promote to the hot table's
			// bottom, evicting the bottom hot entry into cold.
			if p.bern.Trigger(p.cfg.PromoteWeight) {
				t.cold = remove(t.cold, i)
				if len(t.hot) >= p.cfg.HotEntries {
					demoted := t.hot[len(t.hot)-1]
					t.hot = t.hot[:len(t.hot)-1]
					t.cold = insertFIFO(t.cold, demoted, p.cfg.ColdEntries)
				}
				t.hot = append(t.hot, v)
			}
			continue
		}
		// Miss: probabilistic insertion into the cold table.
		if p.bern.Trigger(p.cfg.InsertWeight) {
			t.cold = insertFIFO(t.cold, v, p.cfg.ColdEntries)
		}
	}
	return cmds
}

// OnRefreshInterval implements mitigation.Mitigator: the top hot entry is
// added to the rows refreshed in this interval.
func (p *ProHit) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	for b := range p.banks {
		t := &p.banks[b]
		if len(t.hot) == 0 {
			continue
		}
		top := t.hot[0]
		copy(t.hot, t.hot[1:])
		t.hot = t.hot[:len(t.hot)-1]
		cmds = append(cmds, mitigation.Command{
			Kind: mitigation.RefreshRow, Bank: b, Row: int(top),
		})
	}
	return cmds
}

// OnNewWindow implements mitigation.Mitigator; tables persist across
// windows (they are locality state).
func (p *ProHit) OnNewWindow() {}

// Reset implements mitigation.Mitigator.
func (p *ProHit) Reset() {
	for b := range p.banks {
		p.banks[b].hot = p.banks[b].hot[:0]
		p.banks[b].cold = p.banks[b].cold[:0]
	}
	p.src = rng.NewLFSR32(p.seed ^ 0x960417)
	p.bern = rng.NewBernoulli(p.src, p.cfg.ProbBits)
}

// TableBytesPerBank implements mitigation.Mitigator.
func (p *ProHit) TableBytesPerBank() int { return p.cfg.TableBytes() }

// TableBytes returns the per-bank storage of the hot and cold tables:
// one row address per entry.
func (c Config) TableBytes() int { return (c.HotEntries + c.ColdEntries) * c.RowBits / 8 }

// TableBytes implements mitigation.Sizer for Factory's configuration.
func TableBytes(t mitigation.Target) int { return DefaultConfig(t.RowsPerBank).TableBytes() }

// EscalatesUnderAttack implements mitigation.Escalation: sustained
// hammering promotes the victim to the hot table's top, where the refresh
// is deterministic (once per refresh interval).
func (p *ProHit) EscalatesUnderAttack() bool { return true }

// ActCycles implements mitigation.CycleModel: both small tables are
// searched and updated for two victims.
func (p *ProHit) ActCycles() int { return 2*(p.cfg.HotEntries+p.cfg.ColdEntries) + 4 }

// RefCycles implements mitigation.CycleModel: pop the top entry.
func (p *ProHit) RefCycles() int { return 2 }

func index(s []int32, v int32) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func remove(s []int32, i int) []int32 {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func insertFIFO(s []int32, v int32, max int) []int32 {
	if len(s) >= max {
		copy(s, s[1:])
		s = s[:len(s)-1]
	}
	return append(s, v)
}

func init() { mitigation.Register("ProHit", Factory, TableBytes) }
