package main

import (
	"math"
	"sort"
	"time"
)

// tailPermille returns the highest standard percentile (in per-mille)
// that has at least ten of n samples beyond it, or 0 when n is too small
// for any: then the tail is reported as the maximum.
func tailPermille(n int) int {
	best := 0
	for _, q := range []int{500, 750, 900, 950, 990, 999} {
		if n*(1000-q) >= 10*1000 {
			best = q
		}
	}
	return best
}

// percentile returns the q-per-mille percentile of xs by linear
// interpolation between the closest ranks. xs need not be sorted.
func percentile(xs []float64, permille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(permille) / 1000 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 500) }

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the percentile tailPermille picks for minSamples, the count
// every run has at least, or the maximum when that is too small to have
// one. More samples sharpen the percentile but do not change which it is.
func tail(xs []float64, minSamples int) float64 {
	q := tailPermille(minSamples)
	if q == 0 {
		q = 1000
	}
	return percentile(xs, q)
}

// quartiles returns the first, second and third quartiles exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so a spread printed here matches one computed by
// a script over the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// spread is the interquartile distance as a share of the median, the
// run-to-run steadiness figure a bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// regressed reports whether cur is worse than base by more than bound
// (a share of base) in the metric's direction.
func regressed(base, cur float64, better string, bound float64) bool {
	if better == "higher" {
		return cur < base*(1-bound)
	}
	return cur > base*(1+bound)
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
