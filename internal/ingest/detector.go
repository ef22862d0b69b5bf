package ingest

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/trace"
)

// AgentDetector adapts core.Agent — the paper's CUSUM decision rule —
// to the Detector interface. Each closed period is loaded into the
// agent and folded through core.Fold, as Agent.ProcessCounts does, so
// pipeline output is bit-identical to Agent.ProcessTrace.
type AgentDetector struct {
	agent *core.Agent
}

// NewAgentDetector builds a fresh CUSUM agent detector.
func NewAgentDetector(cfg core.Config) (*AgentDetector, error) {
	a, err := core.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	return &AgentDetector{agent: a}, nil
}

// WrapAgent adapts an existing agent — typically one restored from a
// snapshot, whose report history becomes the resume offset.
func WrapAgent(a *core.Agent) *AgentDetector {
	return &AgentDetector{agent: a}
}

// Agent exposes the wrapped agent for snapshotting.
func (d *AgentDetector) Agent() *core.Agent { return d.agent }

// Period folds one closed period through the agent.
func (d *AgentDetector) Period(p Period) core.Report {
	return d.agent.LoadPeriod(p.Out, p.In, p.End)
}

// Periods returns the resume offset.
func (d *AgentDetector) Periods() int { return len(d.agent.Reports()) }

// Reports returns the agent's period reports.
func (d *AgentDetector) Reports() []core.Report { return d.agent.Reports() }

// Alarmed reports the latched alarm.
func (d *AgentDetector) Alarmed() bool { return d.agent.Alarmed() }

// FirstAlarm returns the first alarm, or nil.
func (d *AgentDetector) FirstAlarm() *core.Alarm { return d.agent.FirstAlarm() }

// KBar returns the EWMA traffic baseline.
func (d *AgentDetector) KBar() float64 { return d.agent.KBar() }

// Name identifies the paper's decision rule.
func (d *AgentDetector) Name() string { return "syndog-cusum" }

// baselineDetector adapts an internal/detect per-observation baseline
// to the per-period Detector interface. Baselines keep no K̄ and no yn
// statistic; their reports carry only the counts and the decision.
type baselineDetector struct {
	det     detect.Detector
	reports []core.Report
	alarm   *core.Alarm
}

// WrapBaseline adapts a detect baseline. The ablation experiment uses
// this directly so its table stays bit-identical to the pre-pipeline
// implementation.
func WrapBaseline(d detect.Detector) Detector {
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

// DetectorConfig parameterizes NewDetector. Agent configures the
// CUSUM detector; the remaining fields configure the baselines and
// default to the ablation experiment's settings.
type DetectorConfig struct {
	// Agent configures the syndog-cusum detector.
	Agent core.Config
	// StaticLimit is the static-threshold alarm level in outgoing SYNs
	// per period (default 250 — 2.5× the Auckland K̄ of 100).
	StaticLimit float64
	// Ratio and RatioFloor configure syn-synack-ratio (defaults 2, 1).
	Ratio      float64
	RatioFloor float64
	// EWMAAlpha, EWMASigma and EWMAWarmup configure adaptive-ewma
	// (defaults 0.9, 6, 10).
	EWMAAlpha  float64
	EWMASigma  float64
	EWMAWarmup int
}

func (c *DetectorConfig) applyDefaults() {
	if c.StaticLimit == 0 {
		c.StaticLimit = 250
	}
	if c.Ratio == 0 {
		c.Ratio = 2
	}
	if c.RatioFloor == 0 {
		c.RatioFloor = 1
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.9
	}
	if c.EWMASigma == 0 {
		c.EWMASigma = 6
	}
	if c.EWMAWarmup == 0 {
		c.EWMAWarmup = 10
	}
}

// DetectorNames lists the selectable decision rules, the paper's
// CUSUM first.
func DetectorNames() []string {
	return []string{"syndog-cusum", "static-threshold", "syn-synack-ratio", "adaptive-ewma"}
}

// NewDetector builds a detector by name — the -detector flag's
// backend. "syndog-cusum" is the paper's agent; the rest are the
// comparison baselines from internal/detect.
func NewDetector(name string, cfg DetectorConfig) (Detector, error) {
	cfg.applyDefaults()
	switch name {
	case "syndog-cusum", "":
		return NewAgentDetector(cfg.Agent)
	case "static-threshold":
		d, err := detect.NewStaticThreshold(cfg.StaticLimit)
		if err != nil {
			return nil, err
		}
		return WrapBaseline(d), nil
	case "syn-synack-ratio":
		d, err := detect.NewRatioDetector(cfg.Ratio, cfg.RatioFloor)
		if err != nil {
			return nil, err
		}
		return WrapBaseline(d), nil
	case "adaptive-ewma":
		d, err := detect.NewAdaptiveEWMA(cfg.EWMAAlpha, cfg.EWMASigma, cfg.EWMAWarmup)
		if err != nil {
			return nil, err
		}
		return WrapBaseline(d), nil
	default:
		return nil, fmt.Errorf("ingest: unknown detector %q (have %v)", name, DetectorNames())
	}
}

// ReplayCounts drives a detector straight from aggregated per-period
// counts — the counts fast path expressed on the unified interface.
// Like Agent.ProcessCounts it is resume-aware: the detector's existing
// period count is skipped.
func ReplayCounts(det Detector, pc *trace.PeriodCounts) error {
	if pc == nil || pc.Periods() == 0 {
		return fmt.Errorf("ingest: no complete periods in counts")
	}
	if len(pc.InSYNACK) != len(pc.OutSYN) {
		return fmt.Errorf("ingest: period counts misaligned (%d SYN vs %d SYN/ACK periods)",
			len(pc.OutSYN), len(pc.InSYNACK))
	}
	for i := det.Periods(); i < pc.Periods(); i++ {
		out, err := core.CountAsUint(pc.OutSYN[i])
		if err != nil {
			return fmt.Errorf("ingest: OutSYN[%d]: %w", i, err)
		}
		in, err := core.CountAsUint(pc.InSYNACK[i])
		if err != nil {
			return fmt.Errorf("ingest: InSYNACK[%d]: %w", i, err)
		}
		det.Period(Period{
			Index: i,
			End:   pc.T0 * time.Duration(i+1),
			Out:   core.PeriodCounts{SYN: out},
			In:    core.PeriodCounts{SYNACK: in},
		})
	}
	return nil
}
