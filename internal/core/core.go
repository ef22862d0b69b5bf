// Package core implements SYN-dog itself: the stateless software agent
// installed at a leaf router that sniffs SYN flooding sources
// (Sections 2-3 of the paper).
//
// An Agent owns two Sniffers — one per router interface. The outbound
// Sniffer counts outgoing SYNs, the inbound Sniffer counts incoming
// SYN/ACKs. At the end of every observation period t0 (default 20 s)
// the agent:
//
//  1. collects Δn = #outgoing SYN − #incoming SYN/ACK,
//  2. updates K̄ with the EWMA of Eq. 1 and normalizes Xn = Δn/K̄,
//  3. feeds Xn to the non-parametric CUSUM detector (Eqs. 2-4).
//
// When the test statistic yn exceeds the threshold N the agent raises
// an alarm: the flooding source is inside this stub network, so no IP
// traceback is needed — that is the paper's headline property.
//
// The agent is stateless in the paper's sense: its memory is two
// packet counters, one EWMA scalar and one CUSUM scalar, independent
// of connection count, which is what makes it immune to flooding.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cusum"
	"repro/internal/eventsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trace"
)

// DefaultObservationPeriod is t0 from Section 3.1.
const DefaultObservationPeriod = 20 * time.Second

// DefaultAlpha is the EWMA memory used for the K̄ estimate of Eq. 1.
// The paper leaves α unspecified ("a constant lying strictly between
// 0 and 1"); 0.9 gives a ~10-period memory.
const DefaultAlpha = 0.9

// Sniffer counts classified TCP control packets at one router
// interface. It is the per-interface half of SYN-dog (Figure 2); two
// sniffers share their counts with the agent at each period boundary.
type Sniffer struct {
	dir netsim.Direction

	// Per-kind running counters for the current observation period.
	syn    uint64
	synAck uint64
	fin    uint64
	rst    uint64

	// Lifetime totals (not reset at period boundaries).
	totalSeen uint64
}

// NewSniffer builds a sniffer for the given interface direction.
func NewSniffer(dir netsim.Direction) *Sniffer {
	return &Sniffer{dir: dir}
}

// Direction returns the interface this sniffer watches.
func (s *Sniffer) Direction() netsim.Direction { return s.dir }

// Count records one packet of the given kind.
func (s *Sniffer) Count(kind packet.Kind) {
	s.totalSeen++
	switch kind {
	case packet.KindSYN:
		s.syn++
	case packet.KindSYNACK:
		s.synAck++
	case packet.KindFIN:
		s.fin++
	case packet.KindRST:
		s.rst++
	}
}

// PeriodCounts is the snapshot a sniffer reports at a period boundary.
type PeriodCounts struct {
	SYN    uint64
	SYNACK uint64
	FIN    uint64
	RST    uint64
}

// Drain returns the current period's counts and resets them.
func (s *Sniffer) Drain() PeriodCounts {
	pc := PeriodCounts{SYN: s.syn, SYNACK: s.synAck, FIN: s.fin, RST: s.rst}
	s.syn, s.synAck, s.fin, s.rst = 0, 0, 0, 0
	return pc
}

// TotalSeen returns the lifetime packet count.
func (s *Sniffer) TotalSeen() uint64 { return s.totalSeen }

// Load replaces the sniffer's current-period counters with aggregated
// counts, as if it had observed that many packets this period. It is
// the counts-level twin of calling Count once per packet: any counts
// from individual Observe calls inside the current partial period are
// discarded, because aggregated inputs are authoritative for the whole
// period.
func (s *Sniffer) Load(pc PeriodCounts) {
	s.totalSeen += pc.SYN + pc.SYNACK + pc.FIN + pc.RST
	s.syn, s.synAck, s.fin, s.rst = pc.SYN, pc.SYNACK, pc.FIN, pc.RST
}

// Config parameterizes an Agent. Zero fields take defaults.
type Config struct {
	// T0 is the observation period (default 20 s).
	T0 time.Duration
	// Alpha is the EWMA memory for K̄ (default 0.9).
	Alpha float64
	// Offset is the CUSUM offset a (default 0.35).
	Offset float64
	// Threshold is the CUSUM flooding threshold N (default 1.05).
	Threshold float64
	// MinK floors the K̄ normalizer to avoid division by ~0 on idle
	// links (default 1 SYN/ACK per period).
	MinK float64
	// WarmupPeriods, if positive, lets the agent observe that many
	// initial periods without feeding the CUSUM detector: K̄ primes
	// and the traffic pipeline fills before decisions start. The
	// first-mile SYN-SYN/ACK pairing settles within one RTT and needs
	// no warm-up (default 0); the last-mile SYN-FIN pairing lags by a
	// connection lifetime and benefits from a few periods.
	WarmupPeriods int
}

// Normalized returns the configuration with defaults applied — the
// effective parameters an agent built from c would run with. Two
// configurations are interchangeable exactly when their normalized
// forms are equal; the daemon uses this to refuse resuming a snapshot
// whose parameters disagree with the command line.
func (c Config) Normalized() Config {
	c.applyDefaults()
	return c
}

func (c *Config) applyDefaults() {
	if c.T0 == 0 {
		c.T0 = DefaultObservationPeriod
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Offset == 0 {
		c.Offset = cusum.DefaultOffset
	}
	if c.Threshold == 0 {
		c.Threshold = cusum.DefaultThreshold
	}
	if c.MinK == 0 {
		c.MinK = 1
	}
}

// Report is the agent's record of one observation period.
type Report struct {
	// Index is the 0-based observation period number.
	Index int
	// End is the simulation/trace time at which the period closed.
	End time.Duration
	// OutSYN and InSYNACK are the period's packet counts.
	OutSYN   uint64
	InSYNACK uint64
	// K is the EWMA estimate K̄ after folding in this period.
	K float64
	// X is the normalized observation Xn = Δn/K̄.
	X float64
	// Y is the CUSUM statistic yn after this observation.
	Y float64
	// Alarmed reports dN(yn), the detector decision.
	Alarmed bool
}

// Alarm describes the first threshold crossing.
type Alarm struct {
	// Period is the observation-period index at which yn first
	// exceeded N.
	Period int
	// At is the period-end time of the crossing.
	At time.Duration
	// Y is the statistic value at the crossing.
	Y float64
}

// Agent is one SYN-dog instance at a leaf router.
type Agent struct {
	cfg      Config
	outbound *Sniffer
	inbound  *Sniffer
	kBar     *cusum.EWMA
	det      *cusum.Detector

	reports []Report
	alarm   *Alarm

	// OnAlarm, if set, fires once at the first threshold crossing —
	// the hook where source location (internal/mitigate) is triggered.
	OnAlarm func(a Alarm)
}

// NewAgent builds a SYN-dog agent.
func NewAgent(cfg Config) (*Agent, error) {
	cfg.applyDefaults()
	if cfg.T0 <= 0 {
		return nil, errors.New("core: non-positive observation period")
	}
	if cfg.MinK <= 0 {
		return nil, errors.New("core: non-positive MinK")
	}
	kBar, err := cusum.NewEWMA(cfg.Alpha)
	if err != nil {
		return nil, fmt.Errorf("core: alpha: %w", err)
	}
	det, err := cusum.New(cfg.Offset, cfg.Threshold)
	if err != nil {
		return nil, fmt.Errorf("core: detector: %w", err)
	}
	return &Agent{
		cfg:      cfg,
		outbound: NewSniffer(netsim.Outbound),
		inbound:  NewSniffer(netsim.Inbound),
		kBar:     kBar,
		det:      det,
	}, nil
}

// Config returns the agent's effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// Observe counts one packet crossing the given interface. SYN-dog only
// inspects the TCP flag bits: outgoing SYNs and incoming SYN/ACKs feed
// the detector; other kinds are tallied for diagnostics.
func (a *Agent) Observe(dir netsim.Direction, kind packet.Kind) {
	switch dir {
	case netsim.Outbound:
		a.outbound.Count(kind)
	case netsim.Inbound:
		a.inbound.Count(kind)
	}
}

// Tap adapts the agent to a netsim router tap.
func (a *Agent) Tap() netsim.Tap {
	return func(_ time.Duration, dir netsim.Direction, seg *packet.Segment) {
		a.Observe(dir, seg.Kind())
	}
}

// Install wires the agent onto a leaf router: it registers the packet
// tap and starts the observation-period timer on sim. The returned
// Periodic can stop the agent's clock.
func (a *Agent) Install(sim *eventsim.Sim, router *netsim.LeafRouter) (*eventsim.Periodic, error) {
	router.AddTap(a.Tap())
	return sim.NewPeriodic(a.cfg.T0, func(now time.Duration) {
		a.EndPeriod(now)
	})
}

// EndPeriod closes the current observation period: both sniffers
// report and reset, the period is folded through Fold, and the period
// report is appended and returned.
func (a *Agent) EndPeriod(now time.Duration) Report {
	out := a.outbound.Drain()
	in := a.inbound.Drain()
	r := Fold(&a.cfg, a.kBar, a.det, len(a.reports), now, out.SYN, in.SYNACK)
	a.reports = append(a.reports, r)
	if r.Alarmed && a.alarm == nil {
		al := Alarm{Period: r.Index, At: now, Y: r.Y}
		a.alarm = &al
		if a.OnAlarm != nil {
			a.OnAlarm(al)
		}
	}
	return r
}

// Fold turns one closed period's two totals into its report — the
// single place a period becomes a decision. It updates K̄ with the
// period's SYN/ACKs (Eq. 1), floors the normalizer at cfg.MinK,
// computes Xn = (syn − synAck)/K̄, and, once index has passed the
// warm-up, feeds Xn to the CUSUM (Eqs. 2-4). A warm-up period primes
// K̄ only: its report carries Y 0 and no alarm. Alarm latching is the
// caller's; the aggregate Agent and each keyed source state keep
// their own.
func Fold(cfg *Config, kBar *cusum.EWMA, det *cusum.Detector, index int, end time.Duration, syn, synAck uint64) Report {
	k := kBar.Update(float64(synAck))
	norm := k
	if norm < cfg.MinK {
		norm = cfg.MinK
	}
	r := Report{
		Index: index, End: end,
		OutSYN: syn, InSYNACK: synAck,
		K: k, X: (float64(syn) - float64(synAck)) / norm,
	}
	if index >= cfg.WarmupPeriods {
		r.Alarmed = det.Observe(r.X)
		r.Y = det.Statistic()
	}
	return r
}

// Period is one closed observation period: per-kind packet counts for
// each direction plus the period's index and end time.
type Period struct {
	Index int
	End   time.Duration
	Out   PeriodCounts
	In    PeriodCounts
}

// Detector folds closed periods into a detection decision. The Agent
// is the paper's rule (Eqs. 1-4); internal/ingest adapts the
// internal/detect baselines to the same contract, so every consumer —
// the streaming pipeline, the counts replay, the daemon — drives any
// rule the same way.
//
// Periods is the resume offset: a detector restored from a snapshot
// already holds that many closed periods, and the ingest Aggregator
// and ReplayCounts skip the matching leading input — this is what
// preserves the daemon's byte-identical restart guarantee.
type Detector interface {
	// Period folds one closed observation period and returns its
	// report. Implementations latch their alarm internally.
	Period(p Period) Report
	// Periods returns how many periods have been folded so far.
	Periods() int
	// Reports returns all period reports so far (the implementation's
	// backing store; callers must not modify it).
	Reports() []Report
	// Alarmed reports whether the latched alarm has fired.
	Alarmed() bool
	// FirstAlarm returns the first alarm, or nil if none fired.
	FirstAlarm() *Alarm
	// KBar returns the current traffic baseline, 0 for detectors that
	// keep none.
	KBar() float64
	// Name identifies the decision rule.
	Name() string
}

// Period closes one observation period from pre-aggregated counts:
// both sniffers are loaded with the period's per-kind totals and
// EndPeriod runs as usual. Because EndPeriod consumes only the drained
// totals, this is bit-identical to Observing each record individually;
// the streaming ingest pipeline and ReplayCounts are built on it. The
// report's index is the agent's own period count, not p.Index.
func (a *Agent) Period(p Period) Report {
	a.outbound.Load(p.Out)
	a.inbound.Load(p.In)
	return a.EndPeriod(p.End)
}

// Periods returns how many periods the agent has closed — its resume
// offset.
func (a *Agent) Periods() int { return len(a.reports) }

// Name identifies the paper's decision rule.
func (a *Agent) Name() string { return "syndog-cusum" }

// Reports returns all period reports so far. The returned slice is the
// agent's own backing store; callers must not modify it.
func (a *Agent) Reports() []Report { return a.reports }

// Statistics returns the yn series, one value per period — the data
// behind Figures 5, 7, 8 and 9.
func (a *Agent) Statistics() []float64 {
	ys := make([]float64, len(a.reports))
	for i, r := range a.reports {
		ys[i] = r.Y
	}
	return ys
}

// Alarmed reports whether the alarm has been raised.
func (a *Agent) Alarmed() bool { return a.alarm != nil }

// FirstAlarm returns a copy of the first alarm, or nil if none fired.
func (a *Agent) FirstAlarm() *Alarm {
	if a.alarm == nil {
		return nil
	}
	al := *a.alarm
	return &al
}

// KBar returns the current K̄ estimate.
func (a *Agent) KBar() float64 { return a.kBar.Value() }

// Reset clears the detector and the alarm but keeps K̄, modeling an
// operator acknowledging an alarm while the traffic baseline persists.
func (a *Agent) Reset() {
	a.det.Reset()
	a.alarm = nil
}

// Restart returns the agent to its freshly constructed state: sniffer
// counters, K̄, detector and alarm all cleared, accumulated reports
// dropped (only the report buffer's capacity survives). A restarted
// agent behaves identically to one just built by NewAgent with the
// same configuration, so Monte-Carlo sweeps run one agent across many
// cells instead of allocating per cell. Unlike Reset, which models an
// operator acknowledging an alarm mid-run, Restart abandons the run
// entirely.
func (a *Agent) Restart() {
	*a.outbound = Sniffer{dir: netsim.Outbound}
	*a.inbound = Sniffer{dir: netsim.Inbound}
	// Restoring the zero state cannot fail validation.
	_ = a.kBar.Restore(0, false)
	_ = a.det.Restore(0, false, 0, 0)
	a.reports = a.reports[:0]
	a.alarm = nil
}

// Design exposes the agent's parameters as a cusum.Design for the
// closed-form predictions (fmin, detection-time bound).
func (a *Agent) Design() cusum.Design {
	return cusum.Design{
		Offset:      a.cfg.Offset,
		MinIncrease: 2 * a.cfg.Offset, // paper's h = 2a design rule
		Threshold:   a.cfg.Threshold,
	}
}

// ProcessTrace replays a recorded trace through the agent: the trace
// is validated, binned into complete periods by trace.Aggregate (the
// trailing partial period is discarded) and folded by ProcessCounts.
// It returns the agent's accumulated period reports.
//
// Like ProcessCounts it is resume-aware: an agent restored from a
// snapshot already holds len(Reports()) completed periods, so replay
// skips that many leading periods of the trace — records inside them
// were counted before the snapshot and must not be appended again.
func (a *Agent) ProcessTrace(tr *trace.Trace) ([]Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	pc, err := tr.Aggregate(a.cfg.T0)
	if err != nil {
		return nil, err
	}
	return a.ProcessCounts(pc)
}

// ProcessCounts drives the agent directly from per-period counts
// through ReplayCounts, after checking that the counts were binned at
// the agent's period. Detection is non-parametric (Eqs. 1-4 see only
// per-period counts), so every in-memory replay runs here at
// O(periods); ProcessTrace is trace.Aggregate in front of it. Like
// ReplayCounts it is resume-aware.
func (a *Agent) ProcessCounts(pc *trace.PeriodCounts) ([]Report, error) {
	if pc != nil && pc.T0 != a.cfg.T0 {
		return nil, fmt.Errorf("core: counts period %v does not match agent period %v", pc.T0, a.cfg.T0)
	}
	// Size the report store once rather than by append doublings: a
	// fresh agent then costs one allocation per replay (sweeps pool
	// agents, and BenchmarkSweepFastPath counts them).
	if pc != nil && pc.Periods() > len(a.reports) {
		a.reports = slices.Grow(a.reports, pc.Periods()-len(a.reports))
	}
	if err := ReplayCounts(a, pc); err != nil {
		return nil, err
	}
	return a.reports, nil
}

// ReplayCounts drives a detector from aggregated per-period counts —
// the one validated walk over trace.PeriodCounts. Each complete period
// is checked to hold integer counts and folded through det.Period with
// its outgoing-SYN and incoming-SYN/ACK totals, ending at T0·(i+1).
//
// It is resume-aware: a detector restored from a snapshot already
// holds det.Periods() completed periods, and replay skips that many
// leading periods of the counts. A bad count stops the replay with the
// periods before it folded.
func ReplayCounts(det Detector, pc *trace.PeriodCounts) error {
	if pc == nil || pc.Periods() == 0 {
		return errors.New("core: no complete periods in counts")
	}
	if len(pc.InSYNACK) != len(pc.OutSYN) {
		return fmt.Errorf("core: period counts misaligned (%d SYN vs %d SYN/ACK periods)",
			len(pc.OutSYN), len(pc.InSYNACK))
	}
	for i := det.Periods(); i < pc.Periods(); i++ {
		out, err := CountAsUint(pc.OutSYN[i])
		if err != nil {
			return fmt.Errorf("core: OutSYN[%d]: %w", i, err)
		}
		in, err := CountAsUint(pc.InSYNACK[i])
		if err != nil {
			return fmt.Errorf("core: InSYNACK[%d]: %w", i, err)
		}
		det.Period(Period{
			Index: i,
			End:   pc.T0 * time.Duration(i+1),
			Out:   PeriodCounts{SYN: out},
			In:    PeriodCounts{SYNACK: in},
		})
	}
	return nil
}

// CountAsUint converts an aggregated packet count to the sniffer's
// integer domain. Aggregated counts are tallies, so anything negative,
// fractional, non-finite, or beyond float64's exact-integer range is a
// corrupted input, not a count.
func CountAsUint(v float64) (uint64, error) {
	if !(v >= 0) || v != math.Trunc(v) || v > 1<<53 {
		return 0, fmt.Errorf("invalid period count %v", v)
	}
	return uint64(v), nil
}
