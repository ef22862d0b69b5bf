package stats

import (
	"errors"
	"math"
)

// ErrShortSeries is returned when a series is too short for the
// requested estimator.
var ErrShortSeries = errors.New("stats: series too short")

// VarianceTimeHurst estimates the Hurst exponent with the
// variance-time method: the series is aggregated at geometrically
// increasing block sizes m, and for a self-similar process
// Var(X^(m)) ~ m^(2H-2), so the slope β of log Var against log m gives
// H = 1 + β/2.
//
// The trace tests use it to measure that every synthetic site
// background exhibits the long-range dependence reported for real
// wide-area TCP arrivals (H ≈ 0.7-0.9) rather than Poisson smoothness
// (H = 0.5). Needs at least 64 points.
func VarianceTimeHurst(xs []float64) (float64, error) {
	n := len(xs)
	if n < 64 {
		return 0, ErrShortSeries
	}
	var logM, logVar []float64
	for m := 1; m <= n/8; m *= 2 {
		agg := aggregateMeans(xs, m)
		v := Variance(agg)
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log(float64(m)))
		logVar = append(logVar, math.Log(v))
	}
	if len(logM) < 3 {
		return 0, ErrShortSeries
	}
	slope, _ := linearFit(logM, logVar)
	h := 1 + slope/2
	return h, nil
}

// linearFit returns the least-squares slope and intercept of y on x.
// Both slices must have equal, nonzero length (the caller guarantees
// this); degenerate inputs yield slope 0.
func linearFit(x, y []float64) (slope, intercept float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	mx, my := Mean(x), Mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, my
	}
	slope = num / den
	return slope, my - slope*mx
}

// aggregateMeans averages non-overlapping blocks of size m.
func aggregateMeans(xs []float64, m int) []float64 {
	blocks := len(xs) / m
	out := make([]float64, blocks)
	for b := 0; b < blocks; b++ {
		sum := 0.0
		for i := b * m; i < (b+1)*m; i++ {
			sum += xs[i]
		}
		out[b] = sum / float64(m)
	}
	return out
}

// IndexOfDispersion returns Var/Mean of the series — 1 for Poisson
// counts, > 1 for bursty (overdispersed) counts. Returns 0 for a
// zero-mean series.
func IndexOfDispersion(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Variance(xs) / m
}
