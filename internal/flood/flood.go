// Package flood generates SYN flooding traffic: spoofed-source SYN
// streams in trace form (for the paper's trace-driven experiments,
// Figure 6) and live form (scheduled onto simulated hosts for the
// end-to-end examples).
//
// The paper's detection argument is volume-based: the CUSUM detector
// is insensitive to the flooding pattern, caring only about total
// volume per observation period. To let experiments verify that claim
// the package provides constant, bursty (ON/OFF) and ramp patterns
// behind one Pattern interface.
package flood

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

// Pattern gives the instantaneous flooding rate (SYN/s) at offset t
// from the flood start. Rates must be non-negative and bounded by
// Peak().
type Pattern interface {
	// Rate returns the instantaneous rate at offset t.
	Rate(t time.Duration) float64
	// Peak returns an upper bound of Rate over the flood duration.
	Peak() float64
	// Mean returns the long-run average rate.
	Mean() float64
}

// Constant floods at a fixed rate — the paper's default ("without
// loss of generality, we assume that the flooding rate is constant").
type Constant struct {
	// PerSecond is the flooding rate in SYN/s.
	PerSecond float64
}

// Rate implements Pattern.
func (c Constant) Rate(time.Duration) float64 { return c.PerSecond }

// Peak implements Pattern.
func (c Constant) Peak() float64 { return c.PerSecond }

// Mean implements Pattern.
func (c Constant) Mean() float64 { return c.PerSecond }

// Bursty alternates between PeakRate during On windows and silence
// during Off windows, modeling pulsing DDoS tools.
type Bursty struct {
	PeakRate float64
	On, Off  time.Duration
}

// Rate implements Pattern.
func (b Bursty) Rate(t time.Duration) float64 {
	cycle := b.On + b.Off
	if cycle <= 0 {
		return 0
	}
	if t%cycle < b.On {
		return b.PeakRate
	}
	return 0
}

// Peak implements Pattern.
func (b Bursty) Peak() float64 { return b.PeakRate }

// Mean implements Pattern.
func (b Bursty) Mean() float64 {
	cycle := b.On + b.Off
	if cycle <= 0 {
		return 0
	}
	return b.PeakRate * float64(b.On) / float64(cycle)
}

// Pulsing is the deterministic duty-cycled attack the evasion suite
// studies: exact-grid bursts at PeakRate during each On window,
// silence during Off. It shares Bursty's rate envelope but not its
// arrival process — Bursty Poisson-thins against the peak (a noisy
// flood tool), while Pulsing emits on a precise schedule, which is how
// an attacker exploiting the fmin (Eq. 8) and detection-delay (Eq. 7)
// bounds must behave: the evasion margins are deterministic
// guarantees, not expectations.
type Pulsing struct {
	PeakRate float64
	On, Off  time.Duration
}

// Rate, Peak and Mean implement Pattern with Bursty's envelope.
func (p Pulsing) Rate(t time.Duration) float64 { return Bursty(p).Rate(t) }

// Peak implements Pattern.
func (p Pulsing) Peak() float64 { return Bursty(p).Peak() }

// Mean implements Pattern.
func (p Pulsing) Mean() float64 { return Bursty(p).Mean() }

// Ramp grows linearly from StartRate to EndRate over Span, modeling a
// botnet spinning up slaves gradually.
type Ramp struct {
	StartRate, EndRate float64
	Span               time.Duration
}

// Rate implements Pattern.
func (r Ramp) Rate(t time.Duration) float64 {
	if r.Span <= 0 {
		return r.EndRate
	}
	if t < 0 {
		return r.StartRate
	}
	if t >= r.Span {
		return r.EndRate
	}
	frac := float64(t) / float64(r.Span)
	return r.StartRate + (r.EndRate-r.StartRate)*frac
}

// Peak implements Pattern.
func (r Ramp) Peak() float64 { return math.Max(r.StartRate, r.EndRate) }

// Mean implements Pattern.
func (r Ramp) Mean() float64 { return (r.StartRate + r.EndRate) / 2 }

// Config describes one flooding source inside one stub network.
type Config struct {
	// Start is the flood onset relative to trace start.
	Start time.Duration
	// Duration is how long the flood lasts (the paper uses 10 minutes,
	// "a typical attacking duration observed in the Internet" [18]).
	Duration time.Duration
	// Pattern shapes the rate; Constant{fi} reproduces the paper.
	Pattern Pattern
	// Victim is the target address and port.
	Victim     netip.Addr
	VictimPort uint16
	// SpoofPrefix is the block spoofed sources are drawn from. The
	// zero value selects 240.0.0.0/4 (reserved, unreachable — exactly
	// what the paper requires of spoofed sources).
	SpoofPrefix netip.Prefix
	// Seed drives source/port randomness.
	Seed int64
}

// DefaultSpoofPrefix is the reserved class-E block used for spoofed
// sources when Config.SpoofPrefix is unset: addresses from it are
// never reachable, so no RST ever comes back to the victim.
var DefaultSpoofPrefix = netip.MustParsePrefix("240.0.0.0/4")

// ErrBadConfig reports an invalid flood configuration.
var ErrBadConfig = errors.New("flood: invalid config")

func (c *Config) validate() error {
	if c.Duration <= 0 || c.Start < 0 {
		return fmt.Errorf("%w: start %v duration %v", ErrBadConfig, c.Start, c.Duration)
	}
	if c.Pattern == nil || c.Pattern.Peak() <= 0 {
		return fmt.Errorf("%w: missing or zero-rate pattern", ErrBadConfig)
	}
	if !c.Victim.IsValid() {
		return fmt.Errorf("%w: invalid victim", ErrBadConfig)
	}
	if !c.SpoofPrefix.IsValid() {
		c.SpoofPrefix = DefaultSpoofPrefix
	}
	return nil
}

// Times returns the SYN emission times (relative to trace start) for
// the configured flood. A Constant pattern emits on an exact regular
// grid — the cumulative count over any window matches rate*window to
// ±1, which is also how packet-blasting attack tools behave; other
// patterns use Poisson thinning against the peak rate.
func Times(cfg Config) ([]time.Duration, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var out []time.Duration
	switch p := cfg.Pattern.(type) {
	case Constant:
		out = make([]time.Duration, 0, int(p.PerSecond*cfg.Duration.Seconds()))
	case Pulsing:
		out = make([]time.Duration, 0, int(p.Mean()*cfg.Duration.Seconds()))
	}
	visitTimes(cfg, func(t time.Duration) {
		out = append(out, t)
	})
	return out, nil
}

// visitTimes streams the arrival process of a validated config to fn,
// in emission order. Times and CountInto both run on this one
// generator, so counting arrivals is arithmetic-for-arithmetic the
// same process as materializing them.
func visitTimes(cfg Config, fn func(time.Duration)) {
	switch p := cfg.Pattern.(type) {
	case Constant:
		constantVisit(cfg.Start, cfg.Duration, p.PerSecond, fn)
	case Pulsing:
		pulsingVisit(cfg.Start, cfg.Duration, p, fn)
	default:
		thinnedVisit(cfg, fn)
	}
}

func constantVisit(start, duration time.Duration, rate float64, fn func(time.Duration)) {
	gap := time.Duration(float64(time.Second) / rate)
	for t := start; t < start+duration; t += gap {
		fn(t)
	}
}

// pulsingVisit emits an exact constant grid inside each On window.
// The burst that straddles the flood end is truncated, never extended,
// so every arrival stays inside [start, start+duration).
func pulsingVisit(start, duration time.Duration, p Pulsing, fn func(time.Duration)) {
	cycle := p.On + p.Off
	if cycle <= 0 || p.On <= 0 {
		return
	}
	end := start + duration
	for cs := start; cs < end; cs += cycle {
		on := p.On
		if cs+on > end {
			on = end - cs
		}
		constantVisit(cs, on, p.PeakRate, fn)
	}
}

func thinnedVisit(cfg Config, fn func(time.Duration)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	peak := cfg.Pattern.Peak()
	t := cfg.Start
	for {
		gap := rng.ExpFloat64() / peak
		t += time.Duration(gap * float64(time.Second))
		if t >= cfg.Start+cfg.Duration {
			return
		}
		if rng.Float64()*peak <= cfg.Pattern.Rate(t-cfg.Start) {
			fn(t)
		}
	}
}

// CountPerPeriod bins the flood's SYN arrival process into per-period
// counts: out[i] is the number of flood SYNs emitted during period i,
// for periods of length t0 starting at trace time zero. It draws the
// exact same arrival times as GenerateTrace (Times with the same
// config, including the thinning RNG for non-constant patterns) but
// never materializes records or spoofed addresses, so a counts-level
// experiment pays O(flood events) here instead of O(records log
// records) for generate+merge+sort. Arrivals beyond the last complete
// period are dropped, exactly as a replay clipped to the background
// span never counts them.
func CountPerPeriod(cfg Config, t0 time.Duration, periods int) ([]float64, error) {
	if periods < 0 {
		return nil, fmt.Errorf("%w: negative period count %d", ErrBadConfig, periods)
	}
	out := make([]float64, periods)
	if err := CountInto(cfg, t0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CountInto accumulates the flood's per-period SYN arrivals into out:
// out[i] gains one per arrival during period i, on top of whatever out
// already holds. It is CountPerPeriod for callers that reuse a
// counting buffer — a sweep worker copies the shared background counts
// into its scratch overlay and bins the flood straight into it,
// leaving no allocation in the per-cell loop. Arrivals beyond len(out)
// periods are dropped, exactly as in CountPerPeriod.
func CountInto(cfg Config, t0 time.Duration, out []float64) error {
	if t0 <= 0 {
		return fmt.Errorf("%w: non-positive observation period %v", ErrBadConfig, t0)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	visitTimes(cfg, func(ts time.Duration) {
		if idx := int(ts / t0); idx >= 0 && idx < len(out) {
			out[idx]++
		}
	})
	return nil
}

// GenerateTrace renders the flood as outbound SYN records, ready to be
// merged into background traffic with trace.Merge (Figure 6's
// "flooding traffic" input). The spoofed sources never answer, so no
// SYN/ACKs accompany them.
func GenerateTrace(cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil { // also defaults SpoofPrefix
		return nil, err
	}
	times, err := Times(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	tr := &trace.Trace{
		Name: fmt.Sprintf("flood-%s", patternName(cfg.Pattern)),
		Span: cfg.Start + cfg.Duration,
	}
	tr.Records = make([]trace.Record, 0, len(times))
	for _, ts := range times {
		tr.Records = append(tr.Records, trace.Record{
			Ts:      ts,
			Kind:    packet.KindSYN,
			Dir:     trace.DirOut,
			Src:     SpoofedAddr(cfg.SpoofPrefix, rng),
			Dst:     cfg.Victim,
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: cfg.VictimPort,
		})
	}
	return tr, nil
}

func patternName(p Pattern) string {
	switch p.(type) {
	case Constant:
		return "constant"
	case Bursty:
		return "bursty"
	case Pulsing:
		return "pulsing"
	case Ramp:
		return "ramp"
	default:
		return "custom"
	}
}

// SpoofedAddr samples a random address inside prefix. Sources are
// randomized per packet, as the DDoS tools of Section 4.2 do.
func SpoofedAddr(prefix netip.Prefix, rng *rand.Rand) netip.Addr {
	base := prefix.Masked().Addr().As4()
	hostBits := 32 - prefix.Bits()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	if hostBits > 0 {
		span := uint64(1) << hostBits
		v += uint32(rng.Uint64() % span)
	}
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
