// Package stats provides the small statistical toolkit the trace and
// arrival tests measure the synthetic traffic with: moments, extrema,
// the SYN-SYN/ACK correlation, the index of dispersion and a
// variance-time Hurst-exponent estimator.
//
// All functions are pure, operate on float64 slices and never mutate
// their inputs. The package has no dependencies beyond the standard
// library and is safe for concurrent use.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result from an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns ErrEmpty for an empty slice.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for an empty slice.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// CrossCorrelation returns the zero-lag Pearson correlation coefficient
// between xs and ys. Both series must have equal length and at least
// two points; otherwise 0 is returned. A value near +1 indicates the
// strong positive SYN-SYN/ACK coupling the paper relies on.
func CrossCorrelation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a := xs[i] - mx
		b := ys[i] - my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}
