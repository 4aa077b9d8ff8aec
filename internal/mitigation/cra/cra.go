// Package cra implements CRA (Kim, Nair & Qureshi, IEEE CAL 2015:
// "Architectural Support for Mitigating Row Hammering in DRAM Memories")
// in its direct form: one activation counter per DRAM row.
//
// When a row's counter reaches the threshold, its neighbors are refreshed
// with act_n and the counter restarts. Counting every row exactly makes
// CRA (like TWiCe) zero-false-positive with minimal extra activations, but
// the counter table is enormous — hundreds of KB per bank — which is why
// the original proposal banks the counters in DRAM itself and why CRA sits
// at the far right of the paper's Fig. 4.
package cra

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// CRA is the mitigation state. Create instances with New.
type CRA struct {
	thRH     uint32
	rowsPB   int
	counters [][]uint32 // [bank][row]
	cntBits  int
}

// New returns a CRA instance. thRH is the per-row activation threshold
// (canonically FlipThreshold/4, as for TWiCe).
func New(banks, rowsPerBank int, thRH uint32) *CRA {
	c := &CRA{thRH: thRH, rowsPB: rowsPerBank, cntBits: mitigation.FieldBits(thRH)}
	c.counters = make([][]uint32, banks)
	for b := range c.counters {
		c.counters[b] = make([]uint32, rowsPerBank)
	}
	return c
}

// Factory adapts New to the registry signature, deriving the trigger
// threshold from the target's flip threshold.
func Factory(t mitigation.Target, _ uint64) mitigation.Mitigator {
	return New(t.Banks, t.RowsPerBank, t.FlipThreshold/4)
}

// TableBytes implements mitigation.Sizer for Factory's counters.
func TableBytes(t mitigation.Target) int { return counterBytes(t.RowsPerBank, t.FlipThreshold/4) }

// counterBytes returns the per-bank storage of one thRH-wide counter per
// row.
func counterBytes(rowsPerBank int, thRH uint32) int {
	return rowsPerBank * mitigation.FieldBits(thRH) / 8
}

// Name implements mitigation.Mitigator.
func (c *CRA) Name() string { return "CRA" }

// OnActivate implements mitigation.Mitigator.
func (c *CRA) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	cnt := c.counters[bank][row] + 1
	if cnt >= c.thRH {
		c.counters[bank][row] = 0
		return append(cmds, mitigation.Command{
			Kind: mitigation.ActN, Bank: bank, Row: row,
		})
	}
	c.counters[bank][row] = cnt
	return cmds
}

// OnRefreshInterval implements mitigation.Mitigator; CRA has no
// interval-scoped work.
func (c *CRA) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}

// OnNewWindow implements mitigation.Mitigator: counters are window-scoped
// (every row was refreshed, so the hammer count restarts).
func (c *CRA) OnNewWindow() {
	for b := range c.counters {
		clear(c.counters[b])
	}
}

// Reset implements mitigation.Mitigator.
func (c *CRA) Reset() { c.OnNewWindow() }

// TableBytesPerBank implements mitigation.Mitigator: one counter per row.
func (c *CRA) TableBytesPerBank() int { return counterBytes(c.rowsPB, c.thRH) }

// EscalatesUnderAttack implements mitigation.Escalation: counting is
// deterministic escalation.
func (c *CRA) EscalatesUnderAttack() bool { return true }

// InjectStateFault implements mitigation.StateInjectable: one bit flip in
// a random row's activation counter. CRA's per-row counters are the
// largest SRAM/DRAM-resident state of any technique here, making it the
// most exposed to SEUs per unit time — the storage-versus-resilience
// trade-off the degradation sweep quantifies.
func (c *CRA) InjectStateFault(src rng.Source) bool {
	bank := rng.Intn(src, len(c.counters))
	row := rng.Intn(src, c.rowsPB)
	c.counters[bank][row] ^= 1 << rng.Intn(src, max(c.cntBits, 1))
	return true
}

// ActCycles implements mitigation.CycleModel: direct-indexed counter
// increment and compare.
func (c *CRA) ActCycles() int { return 2 }

// RefCycles implements mitigation.CycleModel.
func (c *CRA) RefCycles() int { return 1 }

func init() { mitigation.Register("CRA", Factory, TableBytes) }
