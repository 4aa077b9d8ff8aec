// Package para implements PARA, the probabilistic adjacent-row activation
// of Kim et al. [12]: whenever a row is activated, one of its two
// neighbors is also activated with a small static probability p.
//
// PARA is stateless — no tables, just a PRNG and a comparator — which makes
// it the smallest technique in Table III (349 LUTs, the reference).
// Its weakness is the static probability: every activation pays the same
// expected overhead regardless of whether the row could possibly be part
// of an attack, giving PARA the high false-positive rate the paper's
// time-varying weights attack.
package para

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// DefaultProbBits is the fixed-point resolution of the probability
// comparator. With the paper's Pbase = 2^-23 scale, p = weight * 2^-23.
const DefaultProbBits = 23

// PARA is the mitigation state. Create instances with New.
type PARA struct {
	weight uint64 // fixed-point probability: p = weight * 2^-bits
	bits   uint
	bern   *rng.Bernoulli
	src    *rng.LFSR32
	// override, when non-nil, replaces the built-in LFSR on the Bernoulli
	// decision path (fault-injection studies).
	override rng.Source
	side     *rng.XorShift64Star
	seed     uint64
}

// New returns a PARA instance with probability weight*2^-bits.
// The paper uses p ≈ 9.8*10^-4 (weight 8192 at 23 bits), the minimum
// considered effective in the literature [17].
func New(weight uint64, bits uint, seed uint64) *PARA {
	p := &PARA{weight: weight, bits: bits, seed: seed}
	p.Reset()
	return p
}

// NewDefault returns PARA with the paper's probability: RefInt*Pbase at a
// 23-bit comparator, i.e. p = 8192/2^23 ≈ 9.77e-4.
func NewDefault(seed uint64) *PARA { return New(8192, DefaultProbBits, seed) }

// Factory adapts New to the registry signature, scaling the probability
// resolution so that p stays ≈ 9.8e-4 for any RefInt (bits = log2(RefInt)+10,
// weight = RefInt, matching how the paper ties Pbase to RefInt).
func Factory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	bits := uint(10)
	for v := t.RefInt; v > 1; v >>= 1 {
		bits++
	}
	return New(uint64(t.RefInt), bits, seed)
}

// Name implements mitigation.Mitigator.
func (p *PARA) Name() string { return "PARA" }

// OnActivate implements mitigation.Mitigator: with probability p, activate
// one randomly chosen neighbor of the aggressor.
func (p *PARA) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	if !p.bern.Trigger(p.weight) {
		return cmds
	}
	side := int8(1)
	if p.side.Uint64()&1 == 0 {
		side = -1
	}
	return append(cmds, mitigation.Command{
		Kind: mitigation.ActNOne, Bank: bank, Row: row, Side: side,
	})
}

// OnRefreshInterval implements mitigation.Mitigator; PARA has no
// interval-scoped work.
func (p *PARA) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}

// OnNewWindow implements mitigation.Mitigator; PARA keeps no window state.
func (p *PARA) OnNewWindow() {}

// Reset implements mitigation.Mitigator. An installed RNG override
// survives the reset but is reseeded so replays stay deterministic.
func (p *PARA) Reset() {
	p.src = rng.NewLFSR32(p.seed)
	if p.override != nil {
		p.override.Seed(p.seed)
	}
	p.rebuildBernoulli()
	p.side = rng.NewXorShift64Star(p.seed ^ 0x51de)
}

// rebuildBernoulli rewires the comparator onto the active entropy path.
func (p *PARA) rebuildBernoulli() {
	src := rng.Source(p.src)
	if p.override != nil {
		src = p.override
	}
	p.bern = rng.NewBernoulli(src, p.bits)
}

// SetRandSource implements mitigation.RandSettable: it reroutes the
// trigger decision onto src (nil restores the built-in LFSR). PARA is the
// purest demonstration of the Loaded Dice non-selection problem — with a
// stuck selector the technique is indistinguishable from no mitigation.
func (p *PARA) SetRandSource(src rng.Source) {
	p.override = src
	p.rebuildBernoulli()
}

// TableBytesPerBank implements mitigation.Mitigator.
func (p *PARA) TableBytesPerBank() int { return TableBytes(mitigation.Target{}) }

// TableBytes implements mitigation.Sizer: PARA is stateless.
func TableBytes(mitigation.Target) int { return 0 }

// EscalatesUnderAttack implements mitigation.Escalation: PARA's
// probability is static — the property behind its Table III
// vulnerability mark [17].
func (p *PARA) EscalatesUnderAttack() bool { return false }

// ActCycles implements mitigation.CycleModel: draw, compare, decide.
func (p *PARA) ActCycles() int { return 2 }

// RefCycles implements mitigation.CycleModel: nothing to do.
func (p *PARA) RefCycles() int { return 1 }

func init() { mitigation.Register("PARA", Factory, TableBytes) }
