// Package summary is the exported per-period summary layer: the one
// code path that turns a detector's period report plus the keyed
// tracker's state into a PeriodSummary — the unit every consumer of
// per-period state shares. The daemon's /reports, /status, /metrics
// and /summaries endpoints, the fleet simulator's stub reports, and
// the distributed-fusion uplink all read the same summaries instead of
// extracting state ad hoc from core.Agent, daemon plumbing and
// sourcetrack separately.
//
// The wire form is bandwidth-capped the way the censored-fusion
// literature (Lévy-Leduc & Roueff 2009; Lung-Yut-Fong, Lévy-Leduc &
// Cappé 2011) assumes: a summary whose normalized observation Xn falls
// below a configurable censoring threshold λ exports only its volume
// counters — Xn and yn are zeroed, the Censored bit is set, and the
// source digests are dropped — so a quiet monitor's uplink cost per
// period is a few dozen bytes. The fusion coordinator reconstructs
// rank information from the censoring class alone.
package summary

import (
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// DefaultTopK is how many source digests an uncensored summary carries
// when the summarizer has a tracker and Config.TopK is zero.
const DefaultTopK = 8

// Config shapes the exported form of a summary: the censoring
// threshold and the digest budget. The zero value exports everything
// (no censoring) with the default digest budget.
type Config struct {
	// Censor is the censoring threshold λ: a summary with Xn < λ
	// exports zeroed Xn/yn, the Censored bit, and no source digests.
	// λ <= 0 disables censoring.
	Censor float64 `json:"censor,omitempty"`
	// TopK bounds the per-summary source digest list (0 = DefaultTopK,
	// negative = no digests).
	TopK int `json:"topK,omitempty"`
}

// EffectiveTopK resolves the digest budget defaults.
func (c Config) EffectiveTopK() int {
	switch {
	case c.TopK < 0:
		return 0
	case c.TopK == 0:
		return DefaultTopK
	}
	return c.TopK
}

// SourceDigest is one top-K row of a summary: the tracker's current
// evidence against one source prefix, reduced to what localization
// needs.
type SourceDigest struct {
	Key netip.Prefix `json:"key"`
	// SYNs is the Space-Saving SYN count estimate for the key.
	SYNs uint64 `json:"syns"`
	// X and Y are the key's own normalized observation and CUSUM
	// statistic after the period closed.
	X float64 `json:"x"`
	Y float64 `json:"yn"`
	// Alarmed reports the key's latched per-source alarm.
	Alarmed bool `json:"alarmed"`
}

// PeriodSummary is one monitor-period of exported state: the
// aggregate detector's report fields plus the tracker's top-K source
// digests, stamped with the monitor's name. It is the unit the fusion
// coordinator ingests and the daemon's HTTP plane serves.
type PeriodSummary struct {
	Monitor string `json:"monitor"`
	// Index and End identify the observation period (End in trace
	// nanoseconds, matching core.Report).
	Index int           `json:"period"`
	End   time.Duration `json:"endNanos"`
	// OutSYN and InSYNACK are the period's volume counters; they are
	// never censored — the coordinator needs them for liveness and
	// they cost nothing.
	OutSYN   uint64  `json:"outSYN"`
	InSYNACK uint64  `json:"inSYNACK"`
	K        float64 `json:"kBar"`
	// X and Y are the normalized observation Xn and CUSUM statistic
	// yn — zeroed on the wire when Censored.
	X float64 `json:"x"`
	Y float64 `json:"yn"`
	// Alarmed is the monitor's own local decision dN(yn).
	Alarmed bool `json:"alarmed"`
	// Censored marks a summary whose Xn fell below the monitor's
	// censoring threshold; X, Y and Sources were withheld.
	Censored bool `json:"censored,omitempty"`
	// Sources are the tracker's top-K digests at the period close,
	// most suspect first. Empty without a tracker or when censored.
	Sources []SourceDigest `json:"sources,omitempty"`
}

// FromReport builds the uncensored summary of one detector report.
func FromReport(monitor string, r core.Report) PeriodSummary {
	return PeriodSummary{
		Monitor:  monitor,
		Index:    r.Index,
		End:      r.End,
		OutSYN:   r.OutSYN,
		InSYNACK: r.InSYNACK,
		K:        r.K,
		X:        r.X,
		Y:        r.Y,
		Alarmed:  r.Alarmed,
	}
}

// Report reconstructs the core.Report the summary was built from.
// Summaries censor only on export (Censor), so a stored summary's
// reconstruction is exact — this is what keeps /reports byte-identical
// across the summary-layer refactor.
func (p PeriodSummary) Report() core.Report {
	return core.Report{
		Index:    p.Index,
		End:      p.End,
		OutSYN:   p.OutSYN,
		InSYNACK: p.InSYNACK,
		K:        p.K,
		X:        p.X,
		Y:        p.Y,
		Alarmed:  p.Alarmed,
	}
}

// Censor returns the wire form of the summary under cfg: below the
// threshold the statistics are zeroed and the digests dropped; at or
// above it the digest list is trimmed to the budget. The receiver is
// not modified.
func (p PeriodSummary) Censor(cfg Config) PeriodSummary {
	if cfg.Censor > 0 && p.X < cfg.Censor {
		p.X, p.Y = 0, 0
		p.Censored = true
		p.Sources = nil
		return p
	}
	if k := cfg.EffectiveTopK(); len(p.Sources) > k {
		p.Sources = p.Sources[:k:k]
	}
	return p
}

// Summarizer is the single extraction path from live detector and
// tracker state to summaries. It holds no period state of its own —
// callers hand it each closed period's report.
type Summarizer struct {
	// Monitor stamps every summary (the monitor's name in the fusion
	// coordinator's eyes).
	Monitor string
	// Cfg bounds the digest budget at build time. Censoring is applied
	// at export (Censor / Uplink), never here, so locally-stored
	// summaries keep full fidelity.
	Cfg Config
	// Tracker, when non-nil, supplies the top-K source digests.
	Tracker *sourcetrack.Tracker
}

// Summarize builds the summary for one closed period. With a tracker
// attached it must be called after the tracker's own ClosePeriod for
// that period (Tap guarantees the ordering).
func (s *Summarizer) Summarize(r core.Report) PeriodSummary {
	ps := FromReport(s.Monitor, r)
	k := s.Cfg.EffectiveTopK()
	if s.Tracker == nil || k == 0 {
		return ps
	}
	v := s.Tracker.View(k)
	if len(v.Sources) == 0 {
		return ps
	}
	ps.Sources = make([]SourceDigest, len(v.Sources))
	for i, src := range v.Sources {
		ps.Sources[i] = SourceDigest{
			Key:     src.Key,
			SYNs:    src.Count,
			X:       src.X,
			Y:       src.Y,
			Alarmed: src.Alarmed,
		}
	}
	return ps
}

// Backfill summarizes an already-accumulated report history — the
// resume path, where per-period tracker views no longer exist, so the
// summaries carry no digests.
func (s *Summarizer) Backfill(reports []core.Report) []PeriodSummary {
	out := make([]PeriodSummary, len(reports))
	for i, r := range reports {
		out[i] = FromReport(s.Monitor, r)
	}
	return out
}

// RecordTap mirrors ingest.RecordTap, declared structurally so this
// package does not depend on the pipeline package.
type RecordTap interface {
	RecordBatch(recs []trace.Record)
	ClosePeriod(index int, end time.Duration)
}

// Tap glues a Summarizer into an ingest pipeline: install it as both
// the aggregator's Sink (via the Sink method) and its RecordTap, and
// Emit receives one summary per closed period — built after the inner
// tap (the keyed tracker) has folded the period, so the
// digests describe the closed period, not the one before it.
type Tap struct {
	S *Summarizer
	// Inner is the keyed demux the tap wraps (a *sourcetrack.Tracker);
	// nil for untracked pipelines.
	Inner RecordTap
	// Emit receives each period's summary.
	Emit func(PeriodSummary)

	last core.Report
}

// NewTap builds the pipeline glue around a summarizer.
func NewTap(s *Summarizer, inner RecordTap, emit func(PeriodSummary)) *Tap {
	return &Tap{S: s, Inner: inner, Emit: emit}
}

// Sink is the aggregator sink: it captures the detector's report for
// the period about to close. The aggregator calls it before
// ClosePeriod on the tap.
func (t *Tap) Sink(r core.Report) { t.last = r }

// RecordBatch forwards a counted run of records to the inner tap.
func (t *Tap) RecordBatch(recs []trace.Record) {
	if t.Inner != nil {
		t.Inner.RecordBatch(recs)
	}
}

// ClosePeriod closes the inner tap's period first (the tracker's
// fold), then emits the summary — the digests are guaranteed to
// include the period just closed.
func (t *Tap) ClosePeriod(index int, end time.Duration) {
	if t.Inner != nil {
		t.Inner.ClosePeriod(index, end)
	}
	if t.Emit != nil {
		t.Emit(t.S.Summarize(t.last))
	}
}
