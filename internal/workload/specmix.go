package workload

import "tivapromi/internal/rng"

// SpecMixGen is the devirtualized SPECMix: the same four SPEC-like
// component profiles with the same seeds and the same selector stream,
// but dispatched through a 16-entry pick table and direct (devirtualized)
// method calls instead of a Generator slice and a weight scan. Because
// the Mix selector draws Intn(src, 16) — which is exactly Uint64()>>60 —
// the emitted access stream is bit-identical to SPECMix with the same
// arguments; TestSpecMixGenMatchesSPECMix pins this.
type SpecMixGen struct {
	pick   [16]uint8
	src    *rng.XorShift64Star
	stream Stream
	hot    HotCold
	sten   Stencil
	uni    Uniform
}

// NewSpecMixGen returns the flat SPEC mix generator.
func NewSpecMixGen(banks, rows int, seed uint64) *SpecMixGen {
	g := &SpecMixGen{src: rng.NewXorShift64Star(seed)}
	g.stream = *NewStream(banks, rows, 64, seed+1)
	g.hot = *NewHotCold(banks, rows, 16, 0.9, seed+2)
	g.sten = *NewStencil(banks, rows, 128, seed+3)
	g.uni = *NewUniform(banks, rows, seed+4)
	// Weights 6:8:1:1 over a total of 16, matching SPECMix.
	for i := range g.pick {
		switch {
		case i < 6:
			g.pick[i] = 0 // stream
		case i < 14:
			g.pick[i] = 1 // hotcold
		case i < 15:
			g.pick[i] = 2 // stencil
		default:
			g.pick[i] = 3 // uniform
		}
	}
	return g
}

// Name implements Generator.
func (g *SpecMixGen) Name() string { return "spec-mix" }

// Next implements Generator.
func (g *SpecMixGen) Next() Access {
	switch g.pick[g.src.Uint64()>>60] {
	case 0:
		return g.stream.Next()
	case 1:
		return g.hot.Next()
	case 2:
		return g.sten.Next()
	default:
		return g.uni.Next()
	}
}
