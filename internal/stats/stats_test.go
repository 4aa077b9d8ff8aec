package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordAgainstDirect(t *testing.T) {
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, s := range samples {
		w.Add(s)
	}
	if w.N() != len(samples) {
		t.Fatalf("N = %d, want %d", w.N(), len(samples))
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var all, wa, wb Welford
		// Clamp to a range where the m2 accumulator cannot overflow;
		// the merge identity is exact in real arithmetic regardless.
		for _, x := range a {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true
			}
			all.Add(x)
			wa.Add(x)
		}
		for _, x := range b {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true
			}
			all.Add(x)
			wb.Add(x)
		}
		wa.Merge(&wb)
		if wa.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return almostEq(wa.Mean(), all.Mean(), 1e-9*scale) &&
			almostEq(wa.Variance(), all.Variance(), 1e-6*math.Max(1, all.Variance()))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	if a.N() != 2 || !almostEq(a.Mean(), 1.5, 1e-12) {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(&c) // merging empty is a no-op
	if a.N() != 2 {
		t.Fatal("merging empty changed the accumulator")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1) // underflow
	h.Add(42) // overflow
	if h.N() != 12 {
		t.Fatalf("N = %d", h.N())
	}
	for i := 0; i < 10; i++ {
		if h.Bin(i) != 1 {
			t.Fatalf("bin %d = %d, want 1", i, h.Bin(i))
		}
	}
	if h.Min() != -1 || h.Max() != 42 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramTopEdgeRounding(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	// A value extremely close to hi must not index out of range.
	h.Add(math.Nextafter(1, 0))
	if h.Bin(2) != 1 {
		t.Fatalf("top-edge sample not in last bin: %v", h.Bin(2))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median estimate %v out of tolerance", med)
	}
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 0, 10) },
		func() { NewHistogram(1, 0, 10) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram shape did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := Median(s); got != 5 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(s, 100); got != 9 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	even := []float64{1, 2, 3, 4}
	if got := Median(even); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 50)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}
