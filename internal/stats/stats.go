// Package stats provides the small statistics toolkit used by the
// experiment harness: streaming mean/variance (Welford), histograms and
// percentiles.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance without storing
// samples. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another accumulator into w (Chan et al. parallel update).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	mean := w.mean + delta*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// Histogram counts samples in uniform-width bins over [lo, hi); samples
// outside the range land in saturating under/overflow bins.
type Histogram struct {
	lo, hi    float64
	bins      []uint64
	under     uint64
	over      uint64
	n         uint64
	sum       float64
	min, max  float64
	haveFirst bool
}

// NewHistogram creates a histogram with the given bin count over [lo, hi).
// It panics on invalid parameters; the shape of a histogram is a static
// experiment parameter.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(lo < hi) {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]uint64, bins)}
}

// Add incorporates one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	if !h.haveFirst || x < h.min {
		h.min = x
	}
	if !h.haveFirst || x > h.max {
		h.max = x
	}
	h.haveFirst = true
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int(float64(len(h.bins)) * (x - h.lo) / (h.hi - h.lo))
		if i == len(h.bins) { // guard against float rounding at the top edge
			i--
		}
		h.bins[i]++
	}
}

// N returns the total number of samples.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample seen (0 if empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample seen (0 if empty).
func (h *Histogram) Max() float64 { return h.max }

// Bin returns the count of bin i.
func (h *Histogram) Bin(i int) uint64 { return h.bins[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// Quantile returns an approximate q-quantile (q in [0,1]) from the binned
// counts, using the bin midpoint. Under/overflow samples clamp to the range
// edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	cum := h.under
	if target < cum {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		cum += c
		if target < cum {
			return h.lo + (float64(i)+0.5)*width
		}
	}
	return h.hi
}

// Percentile computes an exact percentile of a sample slice (p in [0,100]),
// using nearest-rank. It copies and sorts the input.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median returns the exact median of the samples (mean of the two central
// elements for even counts).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
