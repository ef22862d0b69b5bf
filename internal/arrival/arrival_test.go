package arrival

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestNewPoissonValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPoisson(rate, rng); err != ErrBadParam {
			t.Errorf("NewPoisson(%v) error = %v, want ErrBadParam", rate, err)
		}
	}
	if _, err := NewPoisson(10, rng); err != nil {
		t.Errorf("NewPoisson(10) error = %v", err)
	}
}

func TestPoissonMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, err := NewPoisson(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(-1)
	for i := 0; i < 10000; i++ {
		next := p.Next()
		if next <= prev {
			t.Fatalf("arrival %d not strictly increasing: %v <= %v", i, next, prev)
		}
		prev = next
	}
}

func TestPoissonRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rate = 50.0
	p, err := NewPoisson(rate, rng)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := Collect(p, 200*time.Second)
	got := float64(len(arrivals)) / 200
	if math.Abs(got-rate) > 0.05*rate {
		t.Errorf("empirical rate = %v, want ~%v", got, rate)
	}
	if p.Rate() != rate {
		t.Errorf("Rate() = %v, want %v", p.Rate(), rate)
	}
}

func TestPoissonInterArrivalCV(t *testing.T) {
	// Exponential inter-arrivals have coefficient of variation 1.
	rng := rand.New(rand.NewSource(4))
	p, _ := NewPoisson(200, rng)
	arrivals := Collect(p, 100*time.Second)
	gaps := make([]float64, 0, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, (arrivals[i] - arrivals[i-1]).Seconds())
	}
	cv := stats.StdDev(gaps) / stats.Mean(gaps)
	if math.Abs(cv-1) > 0.1 {
		t.Errorf("Poisson inter-arrival CV = %v, want ~1", cv)
	}
}

func TestNewParetoOnOffValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bad := []ParetoConfig{
		{Sources: 0, MeanRate: 10, Shape: 1.4, MeanOn: 1, MeanOff: 2},
		{Sources: 4, MeanRate: 0, Shape: 1.4, MeanOn: 1, MeanOff: 2},
		{Sources: 4, MeanRate: 10, Shape: 1.0, MeanOn: 1, MeanOff: 2},
		{Sources: 4, MeanRate: 10, Shape: 1.4, MeanOn: 0, MeanOff: 2},
		{Sources: 4, MeanRate: 10, Shape: 1.4, MeanOn: 1, MeanOff: 0},
	}
	for i, cfg := range bad {
		if _, err := NewParetoOnOff(cfg, rng); err != ErrBadParam {
			t.Errorf("case %d: error = %v, want ErrBadParam", i, err)
		}
	}
}

func TestParetoOnOffMonotoneAndRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := ParetoConfig{Sources: 16, MeanRate: 100, Shape: 1.5, MeanOn: 1, MeanOff: 2}
	p, err := NewParetoOnOff(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 300 * time.Second
	arrivals := Collect(p, horizon)
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatalf("merged arrivals not sorted at %d", i)
		}
	}
	got := float64(len(arrivals)) / horizon.Seconds()
	// Heavy tails converge slowly; accept a wide band around the target.
	if got < 0.5*cfg.MeanRate || got > 1.8*cfg.MeanRate {
		t.Errorf("empirical rate = %v, want within [50,180] for target %v", got, cfg.MeanRate)
	}
}

// scanMerge merges by scanning every source head for the first least
// one: the reference ParetoOnOff's winner tree must reproduce, ties
// included.
type scanMerge struct {
	sources []paretoSource
	heads   []time.Duration
}

// Next returns the next arrival and the source it came from.
func (s *scanMerge) Next() (time.Duration, int) {
	best := 0
	for i := 1; i < len(s.heads); i++ {
		if s.heads[i] < s.heads[best] {
			best = i
		}
	}
	t := s.heads[best]
	s.heads[best] = s.sources[best].next()
	return t, best
}

// TestParetoOnOffMatchesScan checks the winner tree against the scan,
// source by source, at source counts on, under and over powers of two.
// Every source is forced ON at a clock of 0, 1 or 2 ns. At the high
// rate every gap clamps to 1 ns, so sources tick in lockstep and most
// arrivals tie another source's head; at the low rate heads differ.
func TestParetoOnOffMatchesScan(t *testing.T) {
	const steps = 20000
	force := func(sources []paretoSource, heads []time.Duration) {
		for i := range sources {
			s := &sources[i]
			s.on, s.now, s.periodEnds = true, time.Duration(i%3), time.Second
			heads[i] = s.next()
		}
	}
	for _, n := range []int{1, 3, 12, 64, 65} {
		for _, rate := range []float64{50, 1e13} {
			cfg := ParetoConfig{Sources: n, MeanRate: rate, Shape: 1.4, MeanOn: 1, MeanOff: 2}
			tree, err := NewParetoOnOff(cfg, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewParetoOnOff(cfg, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			ref := &scanMerge{sources: twin.sources, heads: twin.heads[:n]}
			force(tree.sources, tree.heads)
			force(ref.sources, ref.heads)
			for k := len(tree.heads) - 1; k >= 1; k-- {
				tree.play(k)
			}
			ties := 0
			prev := time.Duration(-1)
			for i := 0; i < steps; i++ {
				winner := int(tree.tree[1])
				got := tree.Next()
				want, wantWinner := ref.Next()
				if got != want || winner != wantWinner {
					t.Fatalf("n=%d rate=%g arrival %d: tree gave %v from source %d, scan %v from source %d",
						n, rate, i, got, winner, want, wantWinner)
				}
				if got == prev {
					ties++
				}
				prev = got
			}
			if rate > 1e12 && n > 1 && ties < steps/2 {
				t.Errorf("n=%d: only %d of %d arrivals tie; the lockstep case lost its ties", n, ties, steps)
			}
		}
	}
}

func TestParetoOnOffBurstierThanPoisson(t *testing.T) {
	// The index of dispersion (var/mean of per-bin counts) of the
	// ON/OFF superposition must exceed the Poisson value of ~1.
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	const rate, horizon = 100.0, 400 * time.Second
	bin := time.Second

	poisson, _ := NewPoisson(rate, rngA)
	pCounts := BinCounts(Collect(poisson, horizon), horizon, bin)
	pIdx := stats.Variance(pCounts) / stats.Mean(pCounts)

	onoff, _ := NewParetoOnOff(ParetoConfig{
		Sources: 8, MeanRate: rate, Shape: 1.3, MeanOn: 2, MeanOff: 4,
	}, rngB)
	oCounts := BinCounts(Collect(onoff, horizon), horizon, bin)
	oIdx := stats.Variance(oCounts) / stats.Mean(oCounts)

	if pIdx > 1.5 {
		t.Errorf("Poisson dispersion index = %v, want ~1", pIdx)
	}
	if oIdx < 2*pIdx {
		t.Errorf("ON/OFF dispersion %v not clearly burstier than Poisson %v", oIdx, pIdx)
	}
}

func TestParetoSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		x := paretoSample(rng, 1.5, 2.0)
		if x < 2.0 {
			t.Fatalf("Pareto sample %v below scale 2.0", x)
		}
	}
}

func TestMMPPValidationAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := NewMMPP(0, 1, 1, 1, rng); err != ErrBadParam {
		t.Errorf("zero rate1: error = %v, want ErrBadParam", err)
	}
	if _, err := NewMMPP(1, 1, 0, 1, rng); err != ErrBadParam {
		t.Errorf("zero mean1: error = %v, want ErrBadParam", err)
	}
	m, err := NewMMPP(20, 200, 5, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(-1)
	for i := 0; i < 5000; i++ {
		next := m.Next()
		if next <= prev {
			t.Fatalf("MMPP arrival %d not increasing", i)
		}
		prev = next
	}
}

func TestMMPPMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Equal sojourn means: long-run rate = (20+200)/2 = 110.
	m, _ := NewMMPP(20, 200, 5, 5, rng)
	const horizon = 500 * time.Second
	arrivals := Collect(m, horizon)
	got := float64(len(arrivals)) / horizon.Seconds()
	if math.Abs(got-110) > 20 {
		t.Errorf("MMPP empirical rate = %v, want ~110", got)
	}
}

func TestWeibullValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	if _, err := NewWeibull(0, 1, rng); err != ErrBadParam {
		t.Errorf("zero rate error = %v", err)
	}
	if _, err := NewWeibull(10, 0, rng); err != ErrBadParam {
		t.Errorf("zero shape error = %v", err)
	}
	if _, err := NewWeibull(math.NaN(), 1, rng); err != ErrBadParam {
		t.Errorf("NaN rate error = %v", err)
	}
}

func TestWeibullMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, shape := range []float64{0.6, 1.0, 2.0} {
		w, err := NewWeibull(100, shape, rng)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := Collect(w, 200*time.Second)
		got := float64(len(arrivals)) / 200
		if math.Abs(got-100) > 8 {
			t.Errorf("shape %v: empirical rate = %v, want ~100", shape, got)
		}
	}
}

func TestWeibullShapeControlsBurstiness(t *testing.T) {
	// Shape < 1 gives inter-arrival CV > 1 (burstier than Poisson);
	// shape > 1 gives CV < 1 (more regular).
	cv := func(shape float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		w, _ := NewWeibull(200, shape, rng)
		arrivals := Collect(w, 100*time.Second)
		gaps := make([]float64, 0, len(arrivals)-1)
		for i := 1; i < len(arrivals); i++ {
			gaps = append(gaps, (arrivals[i] - arrivals[i-1]).Seconds())
		}
		return stats.StdDev(gaps) / stats.Mean(gaps)
	}
	heavy := cv(0.5, 33)
	poissonish := cv(1.0, 34)
	regular := cv(3.0, 35)
	if heavy <= poissonish {
		t.Errorf("shape 0.5 CV %v should exceed shape 1 CV %v", heavy, poissonish)
	}
	if regular >= poissonish {
		t.Errorf("shape 3 CV %v should be below shape 1 CV %v", regular, poissonish)
	}
	if math.Abs(poissonish-1) > 0.15 {
		t.Errorf("shape 1 CV = %v, want ~1 (Poisson)", poissonish)
	}
}

func TestDiurnalEnvelope(t *testing.T) {
	env := DiurnalEnvelope(24*time.Hour, 0.5)
	if got := env(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("env(0) = %v, want 1", got)
	}
	if got := env(6 * time.Hour); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("env(6h) = %v, want 1.5", got)
	}
	if got := env(18 * time.Hour); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("env(18h) = %v, want 0.5", got)
	}
}

func TestModulatedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := NewPoisson(10, rng)
	env := DiurnalEnvelope(time.Hour, 0.2)
	if _, err := NewModulated(nil, env, 1.2, rng); err != ErrBadParam {
		t.Errorf("nil base: error = %v, want ErrBadParam", err)
	}
	if _, err := NewModulated(p, nil, 1.2, rng); err != ErrBadParam {
		t.Errorf("nil env: error = %v, want ErrBadParam", err)
	}
	if _, err := NewModulated(p, env, 0, rng); err != ErrBadParam {
		t.Errorf("zero peak: error = %v, want ErrBadParam", err)
	}
}

func TestModulatedFollowsEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Base runs at 2x target so a peak multiplier of 2 preserves the mean.
	base, _ := NewPoisson(400, rng)
	period := 100 * time.Second
	env := DiurnalEnvelope(period, 0.8)
	m, err := NewModulated(base, env, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := Collect(m, period)
	// First half of the sine period has multiplier > 1, second half < 1.
	var firstHalf, secondHalf int
	for _, a := range arrivals {
		if a < period/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if firstHalf <= secondHalf {
		t.Errorf("modulation not visible: first=%d second=%d", firstHalf, secondHalf)
	}
}

func TestCollectHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, _ := NewPoisson(100, rng)
	horizon := 10 * time.Second
	arrivals := Collect(p, horizon)
	if len(arrivals) == 0 {
		t.Fatal("no arrivals collected")
	}
	for _, a := range arrivals {
		if a > horizon {
			t.Fatalf("arrival %v beyond horizon %v", a, horizon)
		}
	}
}

func TestBinCounts(t *testing.T) {
	arrivals := []time.Duration{
		0, time.Second / 2, time.Second, 3 * time.Second, 9 * time.Second,
		10 * time.Second, // at horizon: ignored
	}
	counts := BinCounts(arrivals, 10*time.Second, time.Second)
	if len(counts) != 10 {
		t.Fatalf("len = %d, want 10", len(counts))
	}
	if counts[0] != 2 || counts[1] != 1 || counts[3] != 1 || counts[9] != 1 {
		t.Errorf("counts = %v", counts)
	}
	total := stats.Sum(counts)
	if total != 5 {
		t.Errorf("total binned = %v, want 5 (horizon arrival excluded)", total)
	}
	if got := BinCounts(arrivals, 0, time.Second); got != nil {
		t.Errorf("zero horizon should yield nil, got %v", got)
	}
	if got := BinCounts(arrivals, 10*time.Second, 0); got != nil {
		t.Errorf("zero width should yield nil, got %v", got)
	}
}

func TestSecondsToDurationGuards(t *testing.T) {
	if got := secondsToDuration(-5); got != time.Nanosecond {
		t.Errorf("negative seconds -> %v, want 1ns", got)
	}
	if got := secondsToDuration(math.NaN()); got != time.Nanosecond {
		t.Errorf("NaN seconds -> %v, want 1ns", got)
	}
	if got := secondsToDuration(0); got != time.Nanosecond {
		t.Errorf("zero seconds -> %v, want 1ns", got)
	}
	if got := secondsToDuration(1.5); got != 1500*time.Millisecond {
		t.Errorf("1.5s -> %v", got)
	}
	// Huge values are clamped, not overflowed.
	if got := secondsToDuration(1e12); got <= 0 {
		t.Errorf("huge seconds overflowed to %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Two processes with the same seed must produce identical streams.
	mk := func() []time.Duration {
		rng := rand.New(rand.NewSource(99))
		p, _ := NewParetoOnOff(ParetoConfig{
			Sources: 4, MeanRate: 50, Shape: 1.4, MeanOn: 1, MeanOff: 2,
		}, rng)
		return Collect(p, 30*time.Second)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
