// Package detect provides the baseline flood detectors that the
// ablation benchmarks compare SYN-dog's CUSUM against. The paper's
// introduction contrasts SYN-dog with stateful or threshold-style
// defenses; these baselines make the comparison concrete:
//
//   - StaticThreshold: alarm when the raw outgoing-SYN rate exceeds a
//     fixed level — the naive operator rule. Site-dependent and
//     blind to slow floods on busy links.
//   - RatioDetector: alarm when SYN/SYNACK exceeds a fixed ratio —
//     normalizes for size but has no memory, so bursty noise triggers
//     it and slow accumulation escapes it.
//   - AdaptiveEWMA: alarm when the SYN count deviates from its own
//     EWMA by more than k standard deviations — adaptive, but the
//     flood itself poisons the baseline (no CUSUM-style reset-to-zero
//     drift), delaying or suppressing detection.
//
// All detectors consume the same per-period observations SYN-dog sees
// (outgoing SYNs, incoming SYN/ACKs), so differences in detection
// delay and false alarms are attributable to the decision rule alone.
//
// SYN-dog's own rule is not here: it is core.Agent, whose periods fold
// through core.Fold. ingest.NewDetector builds the agent or one of
// these baselines behind the one per-period core.Detector contract, so
// the ablation table, syndog -detector and the daemon run every rule
// the same way.
package detect

import (
	"errors"
	"math"

	"repro/internal/cusum"
)

// Observation is one observation period's counts, as delivered by the
// SYN-dog sniffers.
type Observation struct {
	OutSYN   float64
	InSYNACK float64
}

// Detector is the common decision interface: one call per observation
// period, returning the alarm decision after folding the period in.
// Implementations latch: once true, always true until Reset.
type Detector interface {
	// Observe consumes one period and returns the (latched) decision.
	Observe(o Observation) bool
	// Reset clears the alarm and decision state.
	Reset()
	// Name identifies the detector in reports.
	Name() string
}

// ErrBadParam reports an invalid detector parameter.
var ErrBadParam = errors.New("detect: invalid parameter")

// StaticThreshold alarms when OutSYN exceeds Limit.
type StaticThreshold struct {
	limit   float64
	alarmed bool
}

// NewStaticThreshold builds the detector; limit must be positive.
func NewStaticThreshold(limit float64) (*StaticThreshold, error) {
	if limit <= 0 || math.IsNaN(limit) {
		return nil, ErrBadParam
	}
	return &StaticThreshold{limit: limit}, nil
}

// Observe implements Detector.
func (d *StaticThreshold) Observe(o Observation) bool {
	if o.OutSYN > d.limit {
		d.alarmed = true
	}
	return d.alarmed
}

// Reset implements Detector.
func (d *StaticThreshold) Reset() { d.alarmed = false }

// Name implements Detector.
func (d *StaticThreshold) Name() string { return "static-threshold" }

// RatioDetector alarms when OutSYN / max(InSYNACK, floor) exceeds
// Ratio. It is the memoryless cousin of SYN-dog's normalized test.
type RatioDetector struct {
	ratio   float64
	floor   float64
	alarmed bool
}

// NewRatioDetector builds the detector. ratio must exceed 1 (SYNs
// always slightly outnumber SYN/ACKs); floor guards the denominator.
func NewRatioDetector(ratio, floor float64) (*RatioDetector, error) {
	if ratio <= 1 || floor <= 0 || math.IsNaN(ratio) {
		return nil, ErrBadParam
	}
	return &RatioDetector{ratio: ratio, floor: floor}, nil
}

// Observe implements Detector.
func (d *RatioDetector) Observe(o Observation) bool {
	den := o.InSYNACK
	if den < d.floor {
		den = d.floor
	}
	if o.OutSYN/den > d.ratio {
		d.alarmed = true
	}
	return d.alarmed
}

// Reset implements Detector.
func (d *RatioDetector) Reset() { d.alarmed = false }

// Name implements Detector.
func (d *RatioDetector) Name() string { return "syn-synack-ratio" }

// AdaptiveEWMA tracks the SYN count's mean and deviation with EWMAs
// and alarms on a k-sigma excursion. Unlike CUSUM it keeps adapting
// during the anomaly, so a patient attacker ramping slowly can drag
// the baseline up with them.
type AdaptiveEWMA struct {
	k       float64
	mean    *cusum.EWMA
	absDev  *cusum.EWMA
	minDev  float64
	alarmed bool
	primed  int
	warmup  int
}

// NewAdaptiveEWMA builds the detector: alpha is the EWMA memory,
// k the sigma multiplier, warmup the number of periods consumed before
// decisions are made (to let the baseline settle).
func NewAdaptiveEWMA(alpha, k float64, warmup int) (*AdaptiveEWMA, error) {
	if k <= 0 || warmup < 0 {
		return nil, ErrBadParam
	}
	mean, err := cusum.NewEWMA(alpha)
	if err != nil {
		return nil, err
	}
	dev, err := cusum.NewEWMA(alpha)
	if err != nil {
		return nil, err
	}
	return &AdaptiveEWMA{k: k, mean: mean, absDev: dev, minDev: 1, warmup: warmup}, nil
}

// Observe implements Detector.
func (d *AdaptiveEWMA) Observe(o Observation) bool {
	m := d.mean.Value()
	dev := d.absDev.Value()
	if dev < d.minDev {
		dev = d.minDev
	}
	if d.primed >= d.warmup && o.OutSYN > m+d.k*dev {
		d.alarmed = true
		// The anomaly is excluded from the baseline once flagged, a
		// common hardening; before flagging, everything is folded in,
		// which is exactly the poisoning weakness.
		return d.alarmed
	}
	d.primed++
	d.mean.Update(o.OutSYN)
	d.absDev.Update(math.Abs(o.OutSYN - m))
	return d.alarmed
}

// Reset implements Detector.
func (d *AdaptiveEWMA) Reset() { d.alarmed = false }

// Name implements Detector.
func (d *AdaptiveEWMA) Name() string { return "adaptive-ewma" }

// Compile-time interface checks.
var (
	_ Detector = (*StaticThreshold)(nil)
	_ Detector = (*RatioDetector)(nil)
	_ Detector = (*AdaptiveEWMA)(nil)
)

// RunResult summarizes one detector's behavior over a series.
type RunResult struct {
	Name string
	// FirstAlarm is the 0-based period of the first alarm, or -1.
	FirstAlarm int
}

// Run replays a series of observations through d (after Reset) and
// reports when it first alarmed.
func Run(d Detector, series []Observation) RunResult {
	d.Reset()
	res := RunResult{Name: d.Name(), FirstAlarm: -1}
	for i, o := range series {
		if d.Observe(o) && res.FirstAlarm < 0 {
			res.FirstAlarm = i
		}
	}
	return res
}
