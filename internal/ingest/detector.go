package ingest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detect"
)

// Period and Detector are core's decision contract, named here for the
// pipeline's callers. *core.Agent — the paper's CUSUM — implements
// Detector itself; the internal/detect baselines do through
// wrapBaseline.
type (
	Period   = core.Period
	Detector = core.Detector
)

// WrapAgent returns a as a Detector. The agent already is one; the
// conversion is kept for callers that name it.
func WrapAgent(a *core.Agent) Detector { return a }

// The baselines' settings, at the ablation experiment's values: the
// static limit is 2.5× the Auckland K̄ of 100 outgoing SYNs per
// period, the ratio rule alarms above 2 SYNs per SYN/ACK (floor 1),
// and the adaptive EWMA alarms on a 6-deviation excursion after a
// 10-period warm-up with memory 0.9.
const (
	staticLimit = 250
	ratioLimit  = 2
	ratioFloor  = 1
	ewmaAlpha   = 0.9
	ewmaSigma   = 6
	ewmaWarmup  = 10
)

// baselineDetector adapts an internal/detect per-observation baseline
// to the per-period Detector interface. Baselines keep no K̄ and no yn
// statistic; their reports carry only the counts and the decision.
type baselineDetector struct {
	det     detect.Detector
	reports []core.Report
	alarm   *core.Alarm
}

func wrapBaseline(d detect.Detector) Detector {
	return &baselineDetector{det: d}
}

func (d *baselineDetector) Period(p Period) core.Report {
	alarmed := d.det.Observe(detect.Observation{
		OutSYN:   float64(p.Out.SYN),
		InSYNACK: float64(p.In.SYNACK),
	})
	r := core.Report{
		Index:    len(d.reports),
		End:      p.End,
		OutSYN:   p.Out.SYN,
		InSYNACK: p.In.SYNACK,
		Alarmed:  alarmed,
	}
	d.reports = append(d.reports, r)
	if alarmed && d.alarm == nil {
		d.alarm = &core.Alarm{Period: r.Index, At: p.End}
	}
	return r
}

func (d *baselineDetector) Periods() int { return len(d.reports) }

func (d *baselineDetector) Reports() []core.Report { return d.reports }

func (d *baselineDetector) Alarmed() bool { return d.alarm != nil }

func (d *baselineDetector) FirstAlarm() *core.Alarm {
	if d.alarm == nil {
		return nil
	}
	al := *d.alarm
	return &al
}

func (d *baselineDetector) KBar() float64 { return 0 }

func (d *baselineDetector) Name() string { return d.det.Name() }

// DetectorNames lists the selectable decision rules, the paper's
// CUSUM first.
func DetectorNames() []string {
	return []string{"syndog-cusum", "static-threshold", "syn-synack-ratio", "adaptive-ewma"}
}

// NewDetector builds a detector by name — the -detector flag's
// backend. "syndog-cusum" (or "") is the paper's agent configured by
// cfg; the rest are the internal/detect comparison baselines at their
// fixed settings, which ignore cfg.
func NewDetector(name string, cfg core.Config) (Detector, error) {
	var (
		d   detect.Detector
		err error
	)
	switch name {
	case "syndog-cusum", "":
		a, err := core.NewAgent(cfg)
		if err != nil {
			return nil, err
		}
		return a, nil
	case "static-threshold":
		d, err = detect.NewStaticThreshold(staticLimit)
	case "syn-synack-ratio":
		d, err = detect.NewRatioDetector(ratioLimit, ratioFloor)
	case "adaptive-ewma":
		d, err = detect.NewAdaptiveEWMA(ewmaAlpha, ewmaSigma, ewmaWarmup)
	default:
		return nil, fmt.Errorf("ingest: unknown detector %q (have %v)", name, DetectorNames())
	}
	if err != nil {
		return nil, err
	}
	return wrapBaseline(d), nil
}
