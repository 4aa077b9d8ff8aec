package workload

import "tivapromi/internal/rng"

// Kernel generates the simulated traffic — the SPEC mix interleaved with
// an attacker at a fixed share — a block at a time, source by source.
//
// The per-access interleave (a share coin, then the attacker or a mix
// pick, then one component) costs up to three hard-to-predict branches
// per access. Fill instead works in passes over a block: it draws every
// share coin and splits the block's positions into attacker and mix
// lists, the attacker writes its positions in one loop, the mix draws
// its component picks and splits its positions four ways, and then
// Stream, HotCold, Stencil and Uniform each write their own positions in
// one loop. Every source reads only its own state and RNG, so generating
// each source's values in its own order and scattering them to their
// arrival positions reproduces the interleave exactly: the same banks
// and rows as the share coin over Attacker.Next and SPECMix's Next.
// The kernel writes no write bits — the simulation reads none — so its
// Stream skips the write draw, the only use of that component's RNG.
type Kernel struct {
	att     *Attacker // nil: the mix alone, and no coins are drawn
	coin    rng.XorShift64Star
	shareFP uint64 // the attacker share, 32-bit fixed point
	pick    rng.XorShift64Star
	stream  Stream
	hot     HotCold
	sten    Stencil
	uni     Uniform
	block   int

	// at holds, per source, the block positions it takes, in arrival
	// order: source s's list starts at s*block. Sources 0-3 are the mix
	// components (specPick's order), 4 is the attacker. mixAt holds the
	// mix's positions before splitMix sorts them by component.
	at, mixAt []uint16
}

// specPick maps the mix selector's top four bits to a component:
// weights 6:8:1:1 (Stream, HotCold, Stencil, Uniform) over a total of
// 16, so Mix's Intn(src, 16) is exactly Uint64()>>60.
var specPick = [16]uint8{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3}

// specComponents builds SPECMix's four components for seed.
func specComponents(banks, rows int, seed uint64) (*Stream, *HotCold, *Stencil, *Uniform) {
	return NewStream(banks, rows, 64, seed+1),
		NewHotCold(banks, rows, 16, 0.9, seed+2),
		NewStencil(banks, rows, 128, seed+3),
		NewUniform(banks, rows, seed+4)
}

// NewKernel returns a kernel over SPECMix(banks, rows, seed) that fills
// blocks of up to block accesses (at most 65536). With att non-nil, each
// access goes to the attacker with probability share, decided by a coin
// drawn from its own stream, seeded by shareSeed.
func NewKernel(banks, rows int, seed uint64, block int, att *Attacker, share float64, shareSeed uint64) *Kernel {
	if block < 1 || block > 1<<16 {
		panic("workload: kernel block out of range")
	}
	k := &Kernel{
		att:     att,
		coin:    *rng.NewXorShift64Star(shareSeed),
		shareFP: uint64(share * float64(1<<32)),
		pick:    *rng.NewXorShift64Star(seed),
		block:   block,
		at:      make([]uint16, 5*block),
		mixAt:   make([]uint16, block),
	}
	st, hc, sc, un := specComponents(banks, rows, seed)
	k.stream, k.hot, k.sten, k.uni = *st, *hc, *sc, *un
	return k
}

// Attacks returns the number of accesses the attacker has issued.
func (k *Kernel) Attacks() uint64 {
	if k.att == nil {
		return 0
	}
	return k.att.issued
}

// Fill writes the next len(bank) accesses of the stream into bank and
// row in arrival order. row must be at least as long as bank, and bank
// no longer than the kernel's block.
func (k *Kernel) Fill(bank, row []int32) {
	n := len(bank)
	row = row[:n]
	atk, mix := k.splitShare(n)
	if len(atk) > 0 {
		k.att.fill(atk, bank, row)
	}
	comps := k.splitMix(mix)
	k.stream.fill(comps[0], bank, row)
	k.hot.fill(comps[1], bank, row)
	fillNext(&k.sten, comps[2], bank, row)
	fillNext(&k.uni, comps[3], bank, row)
}

// splitShare draws the share coins of the next n positions and returns
// the positions the attacker takes and those the mix takes. Each
// position is written to both lists, and only the list the coin picks
// keeps it, by advancing its count: no branch depends on the coin.
// Without an attacker every position is the mix's and no coin is drawn.
func (k *Kernel) splitShare(n int) (atk, mix []uint16) {
	atk, mix = k.at[4*k.block:][:n], k.mixAt[:n]
	if k.att == nil {
		for j := range mix {
			mix[j] = uint16(j)
		}
		return nil, mix
	}
	coin, fp := k.coin, k.shareFP
	na, nm := 0, 0
	for j := range atk {
		a := 0
		if coin.Uint64()&0xffffffff < fp {
			a = 1
		}
		atk[na] = uint16(j)
		mix[nm] = uint16(j)
		na += a
		nm += 1 - a
	}
	k.coin = coin
	return atk[:na], mix[:nm]
}

// splitMix draws the mix's component pick of each of its positions and
// returns each component's positions, in specPick's order.
func (k *Kernel) splitMix(mix []uint16) (comps [4][]uint16) {
	at, block := k.at, k.block
	var cnt [4]int
	pick := k.pick
	for _, p := range mix {
		c := int(specPick[pick.Uint64()>>60])
		at[c*block+cnt[c]] = p
		cnt[c]++
	}
	k.pick = pick
	for c := range comps {
		comps[c] = at[c*block:][:cnt[c]]
	}
	return comps
}

// fill writes the attacker's next accesses to positions at. Runs of
// accesses between the ramp's steps and the burst's rotations go through
// run's call-free loop; each access that steps or rotates goes through
// Next.
func (a *Attacker) fill(at []uint16, bank, row []int32) {
	for {
		at = at[a.run(at, bank, row):]
		if len(at) == 0 {
			return
		}
		acc := a.Next()
		bank[at[0]], row[at[0]] = int32(acc.Bank), int32(acc.Row)
		at = at[1:]
	}
}

// run writes the attacker's accesses to positions at up to, not
// including, the next one that steps the ramp or rotates the burst, and
// returns how many it wrote. Between those events the attacker's
// accesses cycle through a pattern of 2*nBanks (bank, row) pairs: each
// target bank in turn at one pos parity, then at the other.
func (a *Attacker) run(at []uint16, bank, row []int32) int {
	m := uint64(len(at))
	if a.curK < a.cfg.MaxAggressors {
		if a.issued >= a.nextRamp {
			return 0
		}
		m = min(m, a.nextRamp-a.issued)
	}
	nb := uint64(a.nBanks)
	// The next bank-0 access is z0 accesses away, and the burst rotates
	// on the burstLeft-th bank-0 access from here.
	z0 := (nb - uint64(a.bankAt)) % nb
	if left := a.burstLeft - 1; left < m {
		m = min(m, z0+left*nb)
	}
	pat := a.pat
	for b, t := range a.tb {
		pat[b] = attackSlot{int32(t), int32(a.pairEven[b])}
		pat[int(nb)+b] = attackSlot{int32(t), int32(a.pairOdd[b])}
	}
	// A bank-0 access bumps pos before it picks its row.
	ph := uint64(a.pos&1)*nb + uint64(a.bankAt)
	if a.bankAt == 0 {
		ph = uint64((a.pos+1)&1) * nb
	}
	for _, p := range at[:m] {
		s := pat[ph]
		bank[p], row[p] = s.bank, s.row
		if ph++; ph == 2*nb {
			ph = 0
		}
	}
	var zeros uint64 // bank-0 accesses among the m
	if m > z0 {
		zeros = (m-z0-1)/nb + 1
	}
	a.issued += m
	a.pos += int(zeros)
	a.burstLeft -= zeros
	a.bankAt = int((uint64(a.bankAt) + m) % nb)
	return int(m)
}

// fill writes the stream's next accesses to positions at, without the
// write draw.
func (s *Stream) fill(at []uint16, bank, row []int32) {
	b, r, left := s.bank, s.row, s.left
	for _, p := range at {
		if left == 0 {
			left = s.burst
			if r++; r >= s.rows {
				r = 0
				b = (b + 1) % s.banks
			}
		}
		left--
		bank[p], row[p] = int32(b), int32(r)
	}
	s.bank, s.row, s.left = b, r, left
}

// fill writes the hot/cold generator's next accesses to positions at.
// Both draws are taken on every access, hot or cold, as in Next; both
// candidates are computed, and neither the hot/cold decision nor the
// minimum of the three hot-set lanes is a branch.
func (h *HotCold) fill(at []uint16, bank, row []int32) {
	src := *h.src
	n := uint64(len(h.hotRows))
	hotBanks, hotRows := h.hotBanks, h.hotRows[:n]
	for _, p := range at {
		x := src.Uint64()
		y := src.Uint64()
		i := minLane((y&0x1fffff)*n>>21, (y>>21&0x1fffff)*n>>21)
		i = minLane(i, (y>>42&0x1fffff)*n>>21)
		b, r := int32(carve32(uint32(y>>32), h.banks)), int32(carve32(uint32(y), h.rows))
		hb, hr := int32(hotBanks[i]), hotRows[i]
		if x>>32 < h.hotWeight {
			b, r = hb, hr
		}
		bank[p], row[p] = b, r
	}
	*h.src = src
}

// minLane is min for hot-set indices (below 2^63), by arithmetic rather
// than a branch the random lanes would mispredict.
func minLane(a, b uint64) uint64 {
	d := b - a
	return a + d&uint64(int64(d)>>63)
}

// fillNext writes g's next accesses to positions at, a Next call each.
// Stencil and Uniform take one mix access in 16 each: too few for loops
// of their own to pay.
func fillNext(g Generator, at []uint16, bank, row []int32) {
	for _, p := range at {
		a := g.Next()
		bank[p], row[p] = int32(a.Bank), int32(a.Row)
	}
}

// attackSlot is one (bank, row) of the attacker's dwell pattern.
type attackSlot struct{ bank, row int32 }
