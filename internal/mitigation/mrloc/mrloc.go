// Package mrloc implements MRLoc (You & Yang, DAC 2019): Row-Hammer
// mitigation based on memory locality.
//
// MRLoc keeps a small per-bank FIFO queue of recently seen victim-row
// addresses (the neighbors of activated rows). When a victim address is
// seen again while still in the queue, it is refreshed with a probability
// weighted by its recency — more recently queued victims get a higher
// probability, exploiting the observation that hammering creates tight
// victim locality. The TiVaPRoMi paper's characterization: slightly lower
// false-positive rate than PARA, but equal-or-higher activation overhead,
// still vulnerable to multi-aggressor patterns, and — because it addresses
// victims by logical row N±1 — broken by spare-row remapping.
package mrloc

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Config parameterizes MRLoc.
type Config struct {
	// RowsPerBank bounds victim addresses (rows 0 and RowsPerBank-1 have
	// only one neighbor).
	RowsPerBank int
	// QueueSize is the per-bank victim-queue depth.
	QueueSize int
	// BaseWeight is the fixed-point probability weight at ProbBits
	// resolution for a victim at median recency. The effective
	// probability is BaseWeight * 2*(pos+1)/(QueueSize+1) * 2^-ProbBits,
	// where pos is the victim's queue position (tail = most recent =
	// highest).
	BaseWeight uint64
	// ProbBits is the comparator resolution.
	ProbBits uint
	// RowBits is the row-address width, for storage accounting.
	RowBits int
}

// DefaultConfig mirrors the paper's operating point: activation overhead
// on par with PARA (≈0.1%) from a 16-entry locality queue. The small queue
// is also MRLoc's measurable weakness: rotating more victims than the
// queue holds evicts every entry before its second hit, silencing the
// mitigation entirely (the multi-aggressor vulnerability of Table III).
func DefaultConfig(rowsPerBank int) Config {
	return Config{RowsPerBank: rowsPerBank, QueueSize: 16, BaseWeight: 4608, ProbBits: 23, RowBits: 17}
}

// MRLoc is the mitigation state. Create instances with New.
type MRLoc struct {
	cfg   Config
	banks []queue
	bern  *rng.Bernoulli
	src   *rng.LFSR32
	seed  uint64
}

// queue is a per-bank FIFO of victim rows; index 0 is the oldest.
type queue struct {
	rows []int32
}

// New returns an MRLoc instance for the given bank count.
func New(banks int, cfg Config, seed uint64) *MRLoc {
	m := &MRLoc{cfg: cfg, banks: make([]queue, banks), seed: seed}
	m.Reset()
	return m
}

// Factory adapts New to the registry signature, scaling the probability
// resolution with RefInt like the other probabilistic techniques.
func Factory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return New(t.Banks, targetConfig(t), seed)
}

// targetConfig is the configuration Factory builds for t.
func targetConfig(t mitigation.Target) Config {
	cfg := DefaultConfig(t.RowsPerBank)
	bits := uint(10)
	for v := t.RefInt; v > 1; v >>= 1 {
		bits++
	}
	// Keep the effective probability constant: weight scales with 2^bits.
	cfg.ProbBits = bits
	cfg.BaseWeight = uint64(float64(uint64(1)<<bits) * 4608 / float64(uint64(1)<<23))
	return cfg
}

// Name implements mitigation.Mitigator.
func (m *MRLoc) Name() string { return "MRLoc" }

// OnActivate implements mitigation.Mitigator.
func (m *MRLoc) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	q := &m.banks[bank]
	for _, victim := range [2]int{row - 1, row + 1} {
		if victim < 0 || victim >= m.cfg.RowsPerBank {
			continue
		}
		pos := q.find(int32(victim))
		if pos < 0 {
			q.push(int32(victim), m.cfg.QueueSize)
			continue
		}
		// Recency-weighted probability: tail (newest) entries weigh most.
		w := m.cfg.BaseWeight * 2 * uint64(pos+1) / uint64(m.cfg.QueueSize+1)
		if m.bern.Trigger(w) {
			cmds = append(cmds, mitigation.Command{
				Kind: mitigation.RefreshRow, Bank: bank, Row: victim,
			})
			q.remove(pos)
		} else {
			// Move to tail: it stays the most recent locality hint.
			q.remove(pos)
			q.push(int32(victim), m.cfg.QueueSize)
		}
	}
	return cmds
}

// OnRefreshInterval implements mitigation.Mitigator; MRLoc does no
// interval-scoped work.
func (m *MRLoc) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}

// OnNewWindow implements mitigation.Mitigator; the queue is locality
// state, not window state, so it persists.
func (m *MRLoc) OnNewWindow() {}

// Reset implements mitigation.Mitigator.
func (m *MRLoc) Reset() {
	for b := range m.banks {
		m.banks[b].rows = m.banks[b].rows[:0]
	}
	m.src = rng.NewLFSR32(m.seed ^ 0x3a10c)
	m.bern = rng.NewBernoulli(m.src, m.cfg.ProbBits)
}

// TableBytesPerBank implements mitigation.Mitigator.
func (m *MRLoc) TableBytesPerBank() int { return m.cfg.TableBytes() }

// TableBytes returns the per-bank storage of the victim queue: one row
// address per slot.
func (c Config) TableBytes() int { return c.QueueSize * c.RowBits / 8 }

// TableBytes implements mitigation.Sizer for Factory's configuration.
func TableBytes(t mitigation.Target) int { return targetConfig(t).TableBytes() }

// EscalatesUnderAttack implements mitigation.Escalation: MRLoc's base
// probability is static, and under a focused attack the short queue keeps
// the victim near the low-probability head — protection does not
// intensify with attack duration, the property the paper's Table III
// flags ("vulnerable against multiple aggressors like PARA").
func (m *MRLoc) EscalatesUnderAttack() bool { return false }

// ActCycles implements mitigation.CycleModel: sequential queue search plus
// weighted-probability arithmetic for both victims.
func (m *MRLoc) ActCycles() int { return m.cfg.QueueSize + 6 }

// RefCycles implements mitigation.CycleModel.
func (m *MRLoc) RefCycles() int { return 1 }

func (q *queue) find(row int32) int {
	for i, r := range q.rows {
		if r == row {
			return i
		}
	}
	return -1
}

func (q *queue) push(row int32, max int) {
	if len(q.rows) >= max {
		copy(q.rows, q.rows[1:])
		q.rows = q.rows[:len(q.rows)-1]
	}
	q.rows = append(q.rows, row)
}

func (q *queue) remove(pos int) {
	copy(q.rows[pos:], q.rows[pos+1:])
	q.rows = q.rows[:len(q.rows)-1]
}

func init() { mitigation.Register("MRLoc", Factory, TableBytes) }
