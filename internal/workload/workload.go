// Package workload generates DRAM-level access streams: the synthetic
// stand-in for the paper's gem5 traces of a SPEC CPU2006 mixed load plus
// an attacker using cache flushing.
//
// Generators produce post-cache accesses (bank, row, read/write). The
// statistical profiles are calibrated so the resulting row-activation
// statistics match what the paper reports for its traces: an average of
// ≈40 activations per refresh interval on busy banks, a hard ceiling of
// 165 (DDR4 timing), and strong row locality for the SPEC-like part.
// The attacker bypasses the cache with CLFLUSH, so its stream is 1:1 with
// its instruction stream by construction.
package workload

import (
	"fmt"

	"tivapromi/internal/rng"
)

// carve32 reduces 32 bits of entropy to a uniform value in [0, n) with
// the same multiply-shift reduction rng.Intn uses, letting a generator
// split one 64-bit draw into several independent fields instead of
// drawing once per field.
func carve32(x uint32, n int) int { return int(uint64(x) * uint64(n) >> 32) }

// Access is one DRAM-level access.
type Access struct {
	Bank  int
	Row   int
	Write bool
}

// Generator produces an access stream. Implementations are deterministic
// in their seed and not safe for concurrent use.
type Generator interface {
	// Name identifies the generator in reports.
	Name() string
	// Next returns the next access.
	Next() Access
}

// Uniform spreads accesses uniformly over all banks and rows — the
// worst case for row locality, used in robustness tests.
type Uniform struct {
	banks, rows int
	src         *rng.XorShift64Star
}

// NewUniform returns a uniform generator.
func NewUniform(banks, rows int, seed uint64) *Uniform {
	return &Uniform{banks: banks, rows: rows, src: rng.NewXorShift64Star(seed)}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Next implements Generator. One draw per access: the bank is reduced
// from the high word, the row from the low word, and the write bit from
// the low bits of the high word — bits the bank reduction (a multiply-
// shift, dominated by the word's top bits) barely consults.
func (u *Uniform) Next() Access {
	x := u.src.Uint64()
	return Access{
		Bank:  carve32(uint32(x>>32), u.banks),
		Row:   carve32(uint32(x), u.rows),
		Write: (x>>32)&7 == 0, // ~12% writes
	}
}

// Stream models a streaming kernel (libquantum/bwaves-like): long
// sequential runs through a region, staying on each row for Burst
// consecutive accesses (which the open row absorbs as row hits) before
// moving to the next row.
type Stream struct {
	banks, rows int
	burst       int
	bank, row   int
	left        int
	src         *rng.XorShift64Star
}

// NewStream returns a streaming generator with the given per-row burst
// length (accesses per row before advancing).
func NewStream(banks, rows, burst int, seed uint64) *Stream {
	if burst < 1 {
		burst = 1
	}
	s := &Stream{banks: banks, rows: rows, burst: burst, src: rng.NewXorShift64Star(seed)}
	s.bank = rng.Intn(s.src, banks)
	s.row = rng.Intn(s.src, rows)
	return s
}

// Name implements Generator.
func (s *Stream) Name() string { return "stream" }

// Next implements Generator.
func (s *Stream) Next() Access {
	if s.left == 0 {
		s.left = s.burst
		s.row++
		if s.row >= s.rows {
			s.row = 0
			s.bank = (s.bank + 1) % s.banks
		}
	}
	s.left--
	return Access{Bank: s.bank, Row: s.row, Write: s.src.Uint64()&3 == 0}
}

// HotCold models pointer-heavy SPEC behavior (mcf/omnetpp-like): a small
// hot working set absorbs most accesses, the rest scatter uniformly.
type HotCold struct {
	banks, rows int
	hotRows     []int32
	hotBanks    []int16
	hotWeight   uint64 // fixed-point (32-bit) probability of a hot access
	src         *rng.XorShift64Star
}

// NewHotCold returns a hot/cold generator with hotFrac of accesses going
// to a hot set of hotSet (bank,row) pairs.
func NewHotCold(banks, rows, hotSet int, hotFrac float64, seed uint64) *HotCold {
	if hotSet < 1 {
		hotSet = 1
	}
	if hotFrac < 0 {
		hotFrac = 0
	}
	if hotFrac > 1 {
		hotFrac = 1
	}
	h := &HotCold{
		banks:     banks,
		rows:      rows,
		hotRows:   make([]int32, hotSet),
		hotBanks:  make([]int16, hotSet),
		hotWeight: uint64(hotFrac * float64(1<<32)),
		src:       rng.NewXorShift64Star(seed),
	}
	for i := range h.hotRows {
		h.hotRows[i] = int32(rng.Intn(h.src, rows))
		h.hotBanks[i] = int16(rng.Intn(h.src, banks))
	}
	return h
}

// Name implements Generator.
func (h *HotCold) Name() string { return "hotcold" }

// Next implements Generator. Two draws per access: the first carries the
// write bit (low bits) and the hot/cold decision (high word); the second
// either picks the hot-set index or scatters over the cold space.
func (h *HotCold) Next() Access {
	x := h.src.Uint64()
	write := x&7 < 2 // 25% writes
	if x>>32 < h.hotWeight {
		// Strong preference for low hot-set indices (minimum of three
		// independent 21-bit lanes of one draw), giving a few very hot
		// rows — the head of the Zipf-like popularity curve real traces
		// show.
		y := h.src.Uint64()
		n := uint64(len(h.hotRows))
		i := (y & 0x1fffff) * n >> 21
		if j := (y >> 21 & 0x1fffff) * n >> 21; j < i {
			i = j
		}
		if j := (y >> 42 & 0x1fffff) * n >> 21; j < i {
			i = j
		}
		return Access{Bank: int(h.hotBanks[i]), Row: int(h.hotRows[i]), Write: write}
	}
	y := h.src.Uint64()
	return Access{
		Bank:  carve32(uint32(y>>32), h.banks),
		Row:   carve32(uint32(y), h.rows),
		Write: write,
	}
}

// Stencil models a structured-grid kernel (leslie3d-like): repeated sweeps
// over a band of rows with neighbor touches, producing medium row
// locality with revisits.
type Stencil struct {
	banks, rows int
	base        int
	span        int
	pos         int
	bank        int
	src         *rng.XorShift64Star
}

// NewStencil returns a stencil generator sweeping a span of rows.
func NewStencil(banks, rows, span int, seed uint64) *Stencil {
	if span < 3 {
		span = 3
	}
	if span > rows {
		span = rows
	}
	s := &Stencil{banks: banks, rows: rows, span: span, src: rng.NewXorShift64Star(seed)}
	s.base = rng.Intn(s.src, rows-span+1)
	s.bank = rng.Intn(s.src, banks)
	return s
}

// Name implements Generator.
func (s *Stencil) Name() string { return "stencil" }

// Next implements Generator. One draw per access carries the halo choice
// and the write bit in disjoint low bits; only the rare band move at the
// end of a sweep draws again.
func (s *Stencil) Next() Access {
	// Visit pos, with occasional touches of pos±1 (the stencil halo).
	row := s.base + s.pos
	x := s.src.Uint64()
	switch x & 7 {
	case 0:
		if row+1 < s.rows {
			row++
		}
	case 1:
		if row > 0 {
			row--
		}
	}
	s.pos++
	if s.pos >= s.span {
		s.pos = 0
		// Occasionally move the band and bank, like a new time step on a
		// different tile.
		if s.src.Uint64()&15 == 0 {
			s.base = rng.Intn(s.src, s.rows-s.span+1)
			s.bank = rng.Intn(s.src, s.banks)
		}
	}
	return Access{Bank: s.bank, Row: row, Write: x>>3&1 == 0}
}

// Mix interleaves several generators with integer weights, modeling the
// paper's "SPEC CPU2006 mixed load" across four cores.
type Mix struct {
	name    string
	gens    []Generator
	weights []int
	total   int
	src     *rng.XorShift64Star
}

// NewMix builds a weighted interleave. It panics if inputs are mismatched
// or empty; workload composition is static experiment configuration.
func NewMix(name string, gens []Generator, weights []int, seed uint64) *Mix {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic("workload: mix needs matching non-empty generators and weights")
	}
	total := 0
	for _, w := range weights {
		if w <= 0 {
			panic("workload: non-positive mix weight")
		}
		total += w
	}
	return &Mix{name: name, gens: gens, weights: weights, total: total,
		src: rng.NewXorShift64Star(seed)}
}

// Name implements Generator.
func (m *Mix) Name() string { return m.name }

// Next implements Generator.
func (m *Mix) Next() Access {
	pick := rng.Intn(m.src, m.total)
	for i, w := range m.weights {
		if pick < w {
			return m.gens[i].Next()
		}
		pick -= w
	}
	return m.gens[len(m.gens)-1].Next() // unreachable
}

// SPECMix returns the default mixed load used by the experiments: four
// SPEC-like profiles with weights roughly matching a 4-core mix of
// memory-bound and locality-bound benchmarks. It is the per-access
// reference of Kernel, which generates the same banks and rows a block
// at a time.
func SPECMix(banks, rows int, seed uint64) *Mix {
	st, hc, sc, un := specComponents(banks, rows, seed)
	return NewMix("spec-mix", []Generator{st, hc, sc, un}, []int{6, 8, 1, 1}, seed)
}

// String renders an access for debugging.
func (a Access) String() string {
	op := "R"
	if a.Write {
		op = "W"
	}
	return fmt.Sprintf("%s b%d r%d", op, a.Bank, a.Row)
}
