package workload

import (
	"testing"
)

const (
	testBanks = 4
	testRows  = 16384
)

func inRange(t *testing.T, g Generator, n int) map[int]int {
	t.Helper()
	bankCounts := map[int]int{}
	for i := 0; i < n; i++ {
		a := g.Next()
		if a.Bank < 0 || a.Bank >= testBanks || a.Row < 0 || a.Row >= testRows {
			t.Fatalf("%s produced out-of-range access %+v", g.Name(), a)
		}
		bankCounts[a.Bank]++
	}
	return bankCounts
}

func TestUniformSpreads(t *testing.T) {
	g := NewUniform(testBanks, testRows, 1)
	counts := inRange(t, g, 40000)
	for b := 0; b < testBanks; b++ {
		if counts[b] < 8000 || counts[b] > 12000 {
			t.Fatalf("bank %d got %d of 40000 accesses", b, counts[b])
		}
	}
}

func TestStreamHasRowRuns(t *testing.T) {
	g := NewStream(testBanks, testRows, 64, 1)
	prev := g.Next()
	sameRow := 0
	for i := 0; i < 6400; i++ {
		a := g.Next()
		if a.Bank == prev.Bank && a.Row == prev.Row {
			sameRow++
		}
		prev = a
	}
	// With burst 64, ≈63/64 of consecutive pairs share a row.
	if sameRow < 6000 {
		t.Fatalf("stream locality too low: %d of 6400 same-row pairs", sameRow)
	}
}

func TestStreamAdvancesThroughRows(t *testing.T) {
	g := NewStream(1, 128, 2, 1)
	rows := map[int]bool{}
	for i := 0; i < 128*2+2; i++ {
		rows[g.Next().Row] = true
	}
	if len(rows) < 100 {
		t.Fatalf("stream visited only %d distinct rows", len(rows))
	}
}

func TestHotColdConcentration(t *testing.T) {
	g := NewHotCold(testBanks, testRows, 64, 0.9, 7)
	counts := map[[2]int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		a := g.Next()
		counts[[2]int{a.Bank, a.Row}]++
	}
	// Top-64 locations should hold the hot fraction (~90%).
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	top := 0
	for i := 0; i < 64 && len(all) > 0; i++ {
		best := 0
		for j, c := range all {
			if c > all[best] {
				best = j
			}
		}
		top += all[best]
		all[best] = all[len(all)-1]
		all = all[:len(all)-1]
	}
	if float64(top)/n < 0.75 {
		t.Fatalf("hot set absorbed only %.0f%% of accesses", 100*float64(top)/n)
	}
}

func TestHotColdClampsFraction(t *testing.T) {
	// Out-of-range fractions are clamped, not rejected: generators are
	// exploratory tools.
	g := NewHotCold(testBanks, testRows, 4, 1.5, 1)
	inRange(t, g, 1000)
	g = NewHotCold(testBanks, testRows, 4, -1, 1)
	inRange(t, g, 1000)
}

func TestStencilStaysInBand(t *testing.T) {
	g := NewStencil(testBanks, testRows, 64, 3)
	// Consecutive accesses should be near each other most of the time.
	prev := g.Next()
	near := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a := g.Next()
		d := a.Row - prev.Row
		if d < 0 {
			d = -d
		}
		if a.Bank == prev.Bank && d <= 65 {
			near++
		}
		prev = a
	}
	if float64(near)/n < 0.9 {
		t.Fatalf("stencil locality too low: %d/%d", near, n)
	}
}

func TestMixUsesAllComponents(t *testing.T) {
	a := NewUniform(1, 100, 1)
	b := NewUniform(1, 100, 2)
	m := NewMix("m", []Generator{a, b}, []int{1, 3}, 9)
	if m.Name() != "m" {
		t.Fatal("name lost")
	}
	for i := 0; i < 1000; i++ {
		m.Next()
	}
	// Both substreams consumed (weights 1:3 → roughly 250/750).
	// We can't observe the split directly, but determinism is checkable:
	m2 := NewMix("m", []Generator{NewUniform(1, 100, 1), NewUniform(1, 100, 2)}, []int{1, 3}, 9)
	for i := 0; i < 1000; i++ {
		m2.Next()
	}
	if m.Next() != m2.Next() {
		t.Fatal("mix not deterministic in seeds")
	}
}

func TestMixPanicsOnBadInputs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMix("x", nil, nil, 1) },
		func() { NewMix("x", []Generator{NewUniform(1, 10, 1)}, []int{1, 2}, 1) },
		func() { NewMix("x", []Generator{NewUniform(1, 10, 1)}, []int{0}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad mix accepted")
				}
			}()
			fn()
		}()
	}
}

func TestSPECMixProducesValidStream(t *testing.T) {
	g := SPECMix(testBanks, testRows, 42)
	inRange(t, g, 50000)
}

func TestSPECMixDeterminism(t *testing.T) {
	a := SPECMix(testBanks, testRows, 5)
	b := SPECMix(testBanks, testRows, 5)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("diverged at access %d", i)
		}
	}
}

func TestSpecMixGenMatchesSPECMix(t *testing.T) {
	// The devirtualized generator must emit the exact stream of the
	// interface-dispatched Mix it replaces.
	flat := NewSpecMixGen(testBanks, testRows, 42)
	ref := SPECMix(testBanks, testRows, 42)
	for i := 0; i < 50000; i++ {
		if a, b := flat.Next(), ref.Next(); a != b {
			t.Fatalf("diverged at access %d: flat %v, mix %v", i, a, b)
		}
	}
}

func TestAccessString(t *testing.T) {
	if s := (Access{Bank: 1, Row: 2, Write: true}).String(); s != "W b1 r2" {
		t.Fatalf("String = %q", s)
	}
	if s := (Access{Bank: 3, Row: 4}).String(); s != "R b3 r4" {
		t.Fatalf("String = %q", s)
	}
}
