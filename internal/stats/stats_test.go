package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, -4, -6}, -4},
		{"mixed", []float64{-1, 0, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known sample variance (n-1 denominator) of this classic set is 4.571428...
	wantVar := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, wantVar, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, wantVar)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(wantVar), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(wantVar))
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) error = %v, want ErrEmpty", err)
	}
}

func TestCrossCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Identical series correlate at exactly +1.
	if got := CrossCorrelation(xs, xs); !almostEqual(got, 1, 1e-12) {
		t.Errorf("self correlation = %v, want 1", got)
	}
	// A negated copy correlates at exactly -1.
	neg := []float64{-1, -2, -3, -4, -5}
	if got := CrossCorrelation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("negated correlation = %v, want -1", got)
	}
	// Mismatched lengths and constant series yield 0.
	if got := CrossCorrelation(xs, xs[:3]); got != 0 {
		t.Errorf("length mismatch = %v, want 0", got)
	}
	if got := CrossCorrelation([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant left series = %v, want 0", got)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := linearFit(x, y)
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 1, 1e-12) {
		t.Errorf("fit = (%v, %v), want (2, 1)", slope, intercept)
	}
	// Degenerate x (zero spread) must not divide by zero.
	slope, intercept = linearFit([]float64{2, 2}, []float64{1, 3})
	if slope != 0 || !almostEqual(intercept, 2, 1e-12) {
		t.Errorf("degenerate fit = (%v, %v), want (0, 2)", slope, intercept)
	}
}

// Property: mean of any sample lies within [min, max].
func TestMeanWithinBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		mn, _ := Min(clean)
		mx, _ := Max(clean)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is never negative and is translation invariant.
func TestVarianceProperties(t *testing.T) {
	f := func(xs []float64, shiftRaw int8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e8 {
				clean = append(clean, x)
			}
		}
		v := Variance(clean)
		if v < 0 {
			return false
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(clean))
		for i, x := range clean {
			shifted[i] = x + shift
		}
		v2 := Variance(shifted)
		return almostEqual(v, v2, 1e-6*(1+v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
