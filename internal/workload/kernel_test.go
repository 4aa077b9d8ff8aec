package workload

import (
	"fmt"
	"testing"

	"tivapromi/internal/rng"
)

// refStream is the per-access interleave Kernel replaces: a share coin
// per access picks Attacker.Next or SPECMix's Next.
type refStream struct {
	att     *Attacker
	coin    *rng.XorShift64Star
	shareFP uint64
	mix     *Mix
	attacks uint64
}

func (r *refStream) next() Access {
	if r.att != nil && r.coin.Uint64()&0xffffffff < r.shareFP {
		r.attacks++
		return r.att.Next()
	}
	return r.mix.Next()
}

// kernelCase is one configuration of the differential test: the
// geometry, the attacker (none when attack is empty) and the kernel's
// block.
type kernelCase struct {
	banks, rows int
	seed        uint64
	attack      []int
	share       float64
	minK, maxK  int
	planned     uint64
	burst       uint64
	block       int
}

// newPair builds the kernel and its reference from equal seeds.
func (c kernelCase) newPair(t testing.TB) (*Kernel, *refStream) {
	t.Helper()
	var atts [2]*Attacker
	if len(c.attack) > 0 {
		for i := range atts {
			a, err := NewAttacker(AttackerConfig{
				TargetBanks: c.attack, RowsPerBank: c.rows,
				MinAggressors: c.minK, MaxAggressors: c.maxK,
				PlannedAccesses: c.planned, BurstAccesses: c.burst, Seed: c.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			atts[i] = a
		}
	}
	shareSeed := c.seed ^ 0xd21ce
	k := NewKernel(c.banks, c.rows, c.seed, c.block, atts[0], c.share, shareSeed)
	ref := &refStream{
		att:     atts[1],
		coin:    rng.NewXorShift64Star(shareSeed),
		shareFP: uint64(c.share * float64(1<<32)),
		mix:     SPECMix(c.banks, c.rows, c.seed),
	}
	return k, ref
}

// check fills the lengths' blocks in turn and compares every access's
// bank and row, and the attacker count, with the reference.
func (c kernelCase) check(t testing.TB, lengths []int) {
	t.Helper()
	k, ref := c.newPair(t)
	bank, row := make([]int32, c.block), make([]int32, c.block)
	at := 0
	for _, n := range lengths {
		k.Fill(bank[:n], row[:n])
		for j := 0; j < n; j++ {
			want := ref.next()
			if int(bank[j]) != want.Bank || int(row[j]) != want.Row {
				t.Fatalf("%+v: access %d (block position %d of %d): kernel b%d r%d, reference %v",
					c, at+j, j, n, bank[j], row[j], want)
			}
		}
		at += n
	}
	if k.Attacks() != ref.attacks {
		t.Fatalf("%+v: kernel counted %d attacker accesses, reference %d", c, k.Attacks(), ref.attacks)
	}
}

// TestKernelMatchesSPECMix: without an attacker the kernel emits the
// exact banks and rows of the interface-dispatched Mix.
func TestKernelMatchesSPECMix(t *testing.T) {
	kernelCase{banks: testBanks, rows: testRows, seed: 42, block: 1024}.check(t, repeatLen(1024, 49))
}

func repeatLen(n, times int) []int {
	out := make([]int, times)
	for i := range out {
		out[i] = n
	}
	return out
}

// TestKernelMatchesInterleave compares the kernel with the per-access
// interleave across geometries, shares, ramps and block shapes.
func TestKernelMatchesInterleave(t *testing.T) {
	geos := []struct {
		name        string
		banks, rows int
		attack      []int
	}{
		{"2bank", 2, 1024, []int{1}},
		{"scaled", 4, 16384, []int{0, 2}},
		{"fulldimm", 32, 65536, []int{3, 17, 30}},
	}
	attacks := []struct {
		name       string
		none       bool
		share      float64
		minK, maxK int
		planned    uint64
		burst      uint64
	}{
		{name: "noattacker", none: true, share: 0.65, minK: 1, maxK: 20, planned: 1 << 20},
		{name: "share0", share: 0, minK: 1, maxK: 20, planned: 1 << 20},
		{name: "share1", share: 1, minK: 1, maxK: 20, planned: 1 << 20},
		// The ramp steps every ~100 attacker accesses and the burst
		// rotates every 37 accesses of the first target bank: both
		// change inside a block.
		{name: "share0.65-stepping", share: 0.65, minK: 1, maxK: 20, planned: 2000, burst: 37},
		{name: "share0.65-paper", share: 0.65, minK: 1, maxK: 20, planned: 1 << 20},
		{name: "share1-fixedK", share: 1, minK: 3, maxK: 3, planned: 500, burst: 5},
	}
	shapes := []struct {
		name    string
		block   int
		lengths []int
	}{
		// 12 full blocks and a short last one.
		{"blocks+short", 1024, append(repeatLen(1024, 12), 317)},
		// Ragged blocks below the kernel's capacity, one of a single access.
		{"ragged", 1024, []int{1, 1024, 5, 700, 1023, 64, 2, 1000, 999, 512}},
		{"tiny", 7, append(repeatLen(7, 300), 3)},
	}
	for _, g := range geos {
		for _, a := range attacks {
			for _, s := range shapes {
				c := kernelCase{
					banks: g.banks, rows: g.rows, seed: 0x5eed + uint64(len(g.name)),
					attack: g.attack, share: a.share, minK: a.minK, maxK: a.maxK,
					planned: a.planned, burst: a.burst, block: s.block,
				}
				if a.none {
					c.attack = nil
				}
				t.Run(fmt.Sprintf("%s/%s/%s", g.name, a.name, s.name), func(t *testing.T) {
					c.check(t, s.lengths)
				})
			}
		}
	}
}

// TestKernelFillAllocFree: a block costs no allocation.
func TestKernelFillAllocFree(t *testing.T) {
	c := kernelCase{banks: 4, rows: 16384, seed: 3, attack: []int{0, 2}, share: 0.65,
		minK: 1, maxK: 20, planned: 4000, burst: 50, block: 1024}
	k, _ := c.newPair(t)
	bank, row := make([]int32, 1024), make([]int32, 1024)
	if allocs := testing.AllocsPerRun(50, func() { k.Fill(bank, row) }); allocs != 0 {
		t.Fatalf("Fill allocates %.1f times per block", allocs)
	}
}

// FuzzStreamKernel compares the kernel with the per-access interleave
// over seed, geometry, attacker share, ramp and block length.
func FuzzStreamKernel(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(42598), uint32(2000), uint16(37), uint16(1023), uint16(100))
	f.Add(uint64(2), uint8(1), uint16(0), uint32(1<<20), uint16(0), uint16(1023), uint16(1023))
	f.Add(uint64(3), uint8(2), uint16(65535), uint32(500), uint16(5), uint16(6), uint16(2))
	f.Add(uint64(4), uint8(4), uint16(42598), uint32(9), uint16(1), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, geo uint8, share uint16, planned uint32, burst uint16, block, tail uint16) {
		geos := [3][2]int{{2, 1024}, {4, 16384}, {32, 65536}}
		g := geos[geo%3]
		c := kernelCase{
			banks: g[0], rows: g[1], seed: seed,
			share: float64(share) / 65535, minK: 1, maxK: 20,
			planned: uint64(planned%200000) + 1, burst: uint64(burst % 4096),
			block: int(block%1024) + 1,
		}
		if geo/3%2 == 0 { // else: no attacker
			c.attack = []int{0, g[0] - 1}
		}
		lengths := append(repeatLen(c.block, 4096/c.block+1), int(tail)%c.block+1)
		c.check(t, lengths)
	})
}

// BenchmarkKernel times the scaled geometry's traffic at the paper's
// 0.65 attacker share, in ns per access: the block kernel, and the
// per-access interleave it replaced.
func BenchmarkKernel(b *testing.B) {
	c := kernelCase{banks: 4, rows: 16384, seed: 1, attack: []int{0, 2}, share: 0.65,
		minK: 1, maxK: 20, planned: 1 << 30, block: 1024}
	b.Run("kernel", func(b *testing.B) {
		k, _ := c.newPair(b)
		bank, row := make([]int32, c.block), make([]int32, c.block)
		for i := 0; i < b.N; i++ {
			k.Fill(bank, row)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.block), "ns/access")
	})
	b.Run("interleave", func(b *testing.B) {
		_, ref := c.newPair(b)
		bank, row := make([]int32, c.block), make([]int32, c.block)
		for i := 0; i < b.N; i++ {
			for j := range bank {
				a := ref.next()
				bank[j], row[j] = int32(a.Bank), int32(a.Row)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.block), "ns/access")
	})
}
