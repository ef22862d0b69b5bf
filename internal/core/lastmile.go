package core

import "repro/internal/trace"

// LastMileAgent is the victim-side counterpart of the SYN-dog agent,
// corresponding to the "Last-mile Sniffer" of Figure 6 and the
// companion SYN-FIN detection mechanism: at the router in front of a
// server farm it pairs incoming SYNs (connections opening) against
// outgoing FINs and RSTs (connections closing). Under normal operation
// every connection that opens eventually closes, so the normalized
// difference is small; a flood opens half-connections that never
// close, so the difference accumulates exactly like the source-side
// statistic.
//
// The trade-off the two deployments embody (and the reason the paper
// champions the first mile): the last-mile agent sees the *aggregate*
// flood — high sensitivity, but the sources remain unknown and IP
// traceback is still needed; the first-mile agent sees only its own
// stub's slice V/A, but an alarm *is* the source location. The
// ablation experiment "ablation-lastmile" quantifies this.
//
// Unlike SYN-SYN/ACK pairing (matched within one RTT), a FIN trails
// its SYN by the whole connection lifetime, so {Xn} here is noisier
// at short observation periods; the same non-parametric CUSUM absorbs
// that because only the mean shift matters.
type LastMileAgent struct {
	agent *Agent
}

// NewLastMileAgent builds a victim-side agent with the same parameter
// semantics as NewAgent.
func NewLastMileAgent(cfg Config) (*LastMileAgent, error) {
	a, err := NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	return &LastMileAgent{agent: a}, nil
}

// ProcessTrace replays a victim-side trace: the trace's DirIn records
// are packets arriving at the victim stub, DirOut records leaving it.
// The trace is validated, binned by trace.AggregateLastMile and folded
// by ProcessCounts, so like Agent.ProcessTrace it is resume-aware:
// periods already present in the report history are skipped rather
// than re-appended.
func (l *LastMileAgent) ProcessTrace(tr *trace.Trace) ([]Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	pc, err := tr.AggregateLastMile(l.agent.cfg.T0)
	if err != nil {
		return nil, err
	}
	return l.ProcessCounts(pc)
}

// ProcessCounts drives the agent from victim-side per-period counts as
// produced by trace.AggregateLastMile: OutSYN holds the period's
// connection openings (incoming SYNs) and InSYNACK its closings
// (outgoing FINs/RSTs). The inner agent's outbound sniffer holds
// openings and its inbound sniffer closings, so Δn = openings −
// closings and K̄ tracks the closing rate. Resume-aware like
// Agent.ProcessCounts.
func (l *LastMileAgent) ProcessCounts(pc *trace.PeriodCounts) ([]Report, error) {
	return l.agent.ProcessCounts(pc)
}

// Alarmed reports whether the alarm has been raised.
func (l *LastMileAgent) Alarmed() bool { return l.agent.Alarmed() }

// FirstAlarm returns a copy of the first alarm, or nil.
func (l *LastMileAgent) FirstAlarm() *Alarm { return l.agent.FirstAlarm() }

// Reports returns the period reports.
func (l *LastMileAgent) Reports() []Report { return l.agent.Reports() }

// KBar returns the current closing-rate estimate.
func (l *LastMileAgent) KBar() float64 { return l.agent.KBar() }
