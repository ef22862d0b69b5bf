// Package arrival models the connection-request arrival process that
// synthesizes background traffic for the SYN-dog reproduction.
//
// The paper stresses (Section 3.2) that there is no consensus on
// whether TCP connection arrivals are Poisson or self-similar, which
// is why the detector is non-parametric. trace.Generate draws every
// site profile's connection starts from one process built here:
//
//   - ParetoOnOff: a superposition of heavy-tailed ON/OFF sources,
//     the standard construction of self-similar traffic. A winner
//     tree merges the sources' streams in log2(n) compares per
//     arrival.
//   - Modulated: wraps any Process with a deterministic rate envelope
//     (diurnal drift, trends).
//
// Poisson, memoryless arrivals at a fixed rate, is the reference the
// tests hold the ON/OFF superposition's burstiness against.
//
// All processes draw randomness from an explicit *rand.Rand so that
// every experiment is reproducible from a seed.
package arrival

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Process produces a monotonically non-decreasing sequence of arrival
// times. Implementations are single-goroutine objects: wrap with
// external locking if shared.
type Process interface {
	// Next returns the time of the next arrival. The sequence returned
	// by successive calls is non-decreasing and unbounded.
	Next() time.Duration
}

// ErrBadParam reports an invalid generator parameter.
var ErrBadParam = errors.New("arrival: invalid parameter")

// Poisson is a homogeneous Poisson process with the given rate
// (arrivals per second). Inter-arrival times are i.i.d. exponential.
type Poisson struct {
	rate float64
	now  time.Duration
	rng  *rand.Rand
}

// NewPoisson returns a Poisson process with the given positive rate.
func NewPoisson(rate float64, rng *rand.Rand) (*Poisson, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, ErrBadParam
	}
	return &Poisson{rate: rate, rng: rng}, nil
}

// Next implements Process.
func (p *Poisson) Next() time.Duration {
	gap := p.rng.ExpFloat64() / p.rate
	p.now += secondsToDuration(gap)
	return p.now
}

// Rate returns the configured arrival rate in arrivals/second.
func (p *Poisson) Rate() float64 { return p.rate }

// paretoSource is one ON/OFF source: during ON it emits arrivals at
// peakRate; ON and OFF period lengths are Pareto distributed with the
// given shape, producing long-range dependence for 1 < shape < 2.
type paretoSource struct {
	peakRate   float64
	onShape    float64
	offShape   float64
	onScale    float64 // minimum ON duration, seconds
	offScale   float64 // minimum OFF duration, seconds
	on         bool
	periodEnds time.Duration
	now        time.Duration
	rng        *rand.Rand
}

func (s *paretoSource) advancePeriod() {
	s.on = !s.on
	var length float64
	if s.on {
		length = paretoSample(s.rng, s.onShape, s.onScale)
	} else {
		length = paretoSample(s.rng, s.offShape, s.offScale)
	}
	s.periodEnds += secondsToDuration(length)
}

// next returns the next arrival time of this single source.
func (s *paretoSource) next() time.Duration {
	for {
		if s.on {
			gap := s.rng.ExpFloat64() / s.peakRate
			candidate := s.now + secondsToDuration(gap)
			if candidate <= s.periodEnds {
				s.now = candidate
				return s.now
			}
			// The arrival would land after the ON period: skip to the
			// end of the period and flip to OFF.
			s.now = s.periodEnds
			s.advancePeriod()
			continue
		}
		// OFF: jump to the end of the silence.
		s.now = s.periodEnds
		s.advancePeriod()
	}
}

// paretoSample draws from a Pareto distribution with the given shape
// (alpha) and scale (minimum value).
func paretoSample(rng *rand.Rand, shape, scale float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return scale / math.Pow(u, 1/shape)
}

// ParetoOnOff superposes n heavy-tailed ON/OFF sources. With ON/OFF
// durations Pareto(shape in (1,2)) the aggregate is asymptotically
// self-similar with Hurst exponent H = (3-shape)/2 (Willinger et al.),
// matching the burstiness of measured wide-area TCP arrivals.
//
// The per-source arrival streams merge through a winner tree: heads
// holds each source's next arrival, padded with never-winning leaves
// to a power of two m, and tree[k] for 1 <= k < m is the source that
// wins subtree k (leaf i sits at node m+i). Next takes the winner at
// the root and replays only the log2(m) matches on its path. Ties go
// to the lower index, exactly as a scan for the first least head.
type ParetoOnOff struct {
	sources []paretoSource
	heads   []time.Duration
	tree    []int32
}

// ParetoConfig parameterizes a ParetoOnOff process.
type ParetoConfig struct {
	// Sources is the number of superposed ON/OFF sources.
	Sources int
	// MeanRate is the target aggregate arrival rate (arrivals/second).
	MeanRate float64
	// Shape is the Pareto tail index of ON and OFF durations; values in
	// (1, 2) yield long-range dependence. Typical: 1.4.
	Shape float64
	// MeanOn and MeanOff are the mean ON and OFF period durations in
	// seconds. Typical: 1.0 and 2.0.
	MeanOn, MeanOff float64
}

// NewParetoOnOff builds the superposition. The per-source peak rate is
// chosen so the aggregate long-run mean equals cfg.MeanRate.
func NewParetoOnOff(cfg ParetoConfig, rng *rand.Rand) (*ParetoOnOff, error) {
	if cfg.Sources < 1 || cfg.MeanRate <= 0 || cfg.Shape <= 1 ||
		cfg.MeanOn <= 0 || cfg.MeanOff <= 0 {
		return nil, ErrBadParam
	}
	// Pareto mean = shape*scale/(shape-1), so scale = mean*(shape-1)/shape.
	onScale := cfg.MeanOn * (cfg.Shape - 1) / cfg.Shape
	offScale := cfg.MeanOff * (cfg.Shape - 1) / cfg.Shape
	dutyCycle := cfg.MeanOn / (cfg.MeanOn + cfg.MeanOff)
	perSource := cfg.MeanRate / (float64(cfg.Sources) * dutyCycle)

	m := 1
	for m < cfg.Sources {
		m *= 2
	}
	p := &ParetoOnOff{
		sources: make([]paretoSource, cfg.Sources),
		heads:   make([]time.Duration, m),
		tree:    make([]int32, 2*m),
	}
	for i := range p.sources {
		src := &p.sources[i]
		*src = paretoSource{
			peakRate: perSource,
			onShape:  cfg.Shape,
			offShape: cfg.Shape,
			onScale:  onScale,
			offScale: offScale,
			on:       rng.Float64() < dutyCycle, // random initial phase
			rng:      rng,
		}
		// Random residual time in the initial period.
		var length float64
		if src.on {
			length = paretoSample(rng, src.onShape, src.onScale)
		} else {
			length = paretoSample(rng, src.offShape, src.offScale)
		}
		src.periodEnds = secondsToDuration(length * rng.Float64())
		p.heads[i] = src.next()
	}
	for i := cfg.Sources; i < m; i++ {
		p.heads[i] = math.MaxInt64
	}
	for i := range m {
		p.tree[m+i] = int32(i)
	}
	for k := m - 1; k >= 1; k-- {
		p.play(k)
	}
	return p, nil
}

// play sets tree[k] to the winner of its two children: the earlier
// head, or the left (lower-index) one on a tie.
func (p *ParetoOnOff) play(k int) {
	l, r := p.tree[2*k], p.tree[2*k+1]
	if p.heads[r] < p.heads[l] {
		l = r
	}
	p.tree[k] = l
}

// Next implements Process by merging the per-source arrival streams.
func (p *ParetoOnOff) Next() time.Duration {
	best := p.tree[1]
	t := p.heads[best]
	p.heads[best] = p.sources[best].next()
	for k := (len(p.heads) + int(best)) / 2; k >= 1; k /= 2 {
		p.play(k)
	}
	return t
}

// Envelope maps an absolute time to a rate multiplier (>= 0). It is
// used to impose slow deterministic variation, such as time-of-day
// drift, on top of a stochastic process.
type Envelope func(t time.Duration) float64

// DiurnalEnvelope returns a sinusoidal envelope with the given period
// and relative amplitude in [0, 1): multiplier = 1 + amp*sin(2πt/period).
func DiurnalEnvelope(period time.Duration, amp float64) Envelope {
	return func(t time.Duration) float64 {
		phase := 2 * math.Pi * float64(t) / float64(period)
		return 1 + amp*math.Sin(phase)
	}
}

// Modulated thins a base Process with an Envelope, implementing
// time-varying rates: an arrival at time t survives with probability
// envelope(t)/peak.
type Modulated struct {
	base Process
	env  Envelope
	peak float64
	rng  *rand.Rand
}

// NewModulated wraps base. peak must be an upper bound of the envelope
// over all times; the base process should run at peak times the target
// mean rate for correct thinning.
func NewModulated(base Process, env Envelope, peak float64, rng *rand.Rand) (*Modulated, error) {
	if base == nil || env == nil || peak <= 0 {
		return nil, ErrBadParam
	}
	return &Modulated{base: base, env: env, peak: peak, rng: rng}, nil
}

// Next implements Process.
func (m *Modulated) Next() time.Duration {
	for {
		t := m.base.Next()
		if m.rng.Float64()*m.peak <= m.env(t) {
			return t
		}
	}
}

// Collect drains arrivals from p up to horizon and returns them as a
// slice. It is a convenience for tests and trace generation.
func Collect(p Process, horizon time.Duration) []time.Duration {
	var out []time.Duration
	for {
		t := p.Next()
		if t > horizon {
			return out
		}
		out = append(out, t)
	}
}

// BinCounts buckets arrival times into fixed-width bins covering
// [0, horizon) and returns the per-bin counts. Arrivals at or beyond
// the horizon are ignored.
func BinCounts(arrivals []time.Duration, horizon, width time.Duration) []float64 {
	if width <= 0 || horizon <= 0 {
		return nil
	}
	n := int(horizon / width)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range arrivals {
		idx := int(t / width)
		if idx >= 0 && idx < n {
			counts[idx]++
		}
	}
	return counts
}

// secondsToDuration converts a float seconds value to time.Duration,
// guarding against pathological values. Gaps are clamped to at least
// one nanosecond so that arrival sequences strictly advance.
func secondsToDuration(s float64) time.Duration {
	if s < 0 || math.IsNaN(s) {
		return time.Nanosecond
	}
	if s > 1e9 { // ~31 years; treat as effectively unbounded
		s = 1e9
	}
	d := time.Duration(s * float64(time.Second))
	if d < time.Nanosecond {
		return time.Nanosecond
	}
	return d
}
