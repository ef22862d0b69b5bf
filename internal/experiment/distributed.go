package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/fusion"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/trace"
)

// This file measures what the fusion layer (internal/fusion) adds over
// independent per-site SYN-dogs: one flood split across M of 4
// heterogeneous sites, each flooded site receiving ~0.5x its own local
// sensitivity floor fmin_i = a·K̄_i/t0 — below every local detector's
// reach by construction — while the coordinator fuses the sites'
// censored per-period summaries through rank-based quantile
// normalization and recovers both the detection and the localization
// (which monitors, which spoofed /24s) that no single vantage can see.

// distCensor is the uplink censoring threshold λ for the experiment.
// The sites' quiet Xn sits near +0.1 (background SYNs that never get a
// SYN/ACK), while a flooded site adds ≈ 0.5·a = 0.175 on top, so
// λ = 0.08 censors a large share of quiet periods (counters-only on
// the wire — the bandwidth-capped regime the censored-fusion
// literature assumes) while flood periods always export in full.
const distCensor = 0.08

// distTruth returns the spoofed-source /24 for flooded site i; the
// blocks are disjoint so localization has an exact per-site answer.
func distTruth(i int) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i))
}

// distSite is one vantage: its background trace and measured floor.
type distSite struct {
	name string
	bg   *trace.Trace
	fmin float64
}

// distOutcome reduces one M-cell to what the table reports.
type distOutcome struct {
	localAlarms int
	detected    bool
	falseAlarm  bool
	delay       int
	monitors    []string
	truthFound  int
}

// distReplaySite runs one site's (possibly flooded) trace through the
// streaming pipeline with a summary tap — the same construction the
// live fleet uses — and returns the local agent's verdict plus the
// full-fidelity summary series.
func distReplaySite(name string, tr *trace.Trace, t0 time.Duration) (bool, []summary.PeriodSummary, error) {
	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		return false, nil, err
	}
	tracker, err := sourcetrack.New(sourcetrack.Config{
		KeyBits:    24,
		MaxSources: 4096,
		Agent:      core.Config{T0: t0},
	})
	if err != nil {
		return false, nil, err
	}
	var sums []summary.PeriodSummary
	tap := summary.NewTap(&summary.Summarizer{Monitor: name, Tracker: tracker}, tracker,
		func(ps summary.PeriodSummary) { sums = append(sums, ps) })
	p := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(tr),
		Detector: agent,
		T0:       t0,
		Sink:     tap.Sink,
		Tap:      tap,
	}
	if err := p.Run(); err != nil {
		return false, nil, err
	}
	return agent.Alarmed(), sums, nil
}

// AblationDistributed runs the distributed-detection experiment: a
// flood split across the first M of 4 sites (LBL, Harvard, UNC,
// Auckland backgrounds) at 0.5x each flooded site's own floor, per-site
// pipelines producing censored summaries, and a fusion coordinator
// ingesting all four streams in period order. For each M it reports
// the local alarm count (must stay 0 — the whole point), whether the
// fused statistic detected, the detection delay in periods, and the
// localized monitor set and spoofed /24 prefixes against ground truth.
func AblationDistributed(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	t0 := core.DefaultObservationPeriod
	span := 30 * time.Minute
	onset := 10 * time.Minute
	if opts.Fast {
		span = 12 * time.Minute
		onset = 4 * time.Minute
	}
	onsetP := int(onset / t0)

	// The four site backgrounds, generated once; every M-cell replays
	// them read-only and merges its own flood copies.
	profiles := []trace.Profile{trace.LBL(), trace.Harvard(), trace.UNC(), trace.Auckland()}
	sites, err := collect(opts.Parallelism, len(profiles), func(i int) (distSite, error) {
		p := profiles[i]
		p.Span = span
		bg, err := trace.Generate(p, seedFor(opts.Seed, "distributed-bg:"+p.Name))
		if err != nil {
			return distSite{}, err
		}
		kbar, err := backgroundKBar(bg, t0)
		if err != nil {
			return distSite{}, err
		}
		cfg := core.Config{T0: t0}.Normalized()
		return distSite{
			name: p.Name,
			bg:   bg,
			fmin: cfg.Offset * kbar / t0.Seconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	ms := []int{1, 2, 3, 4}
	wire := summary.Config{Censor: distCensor}
	// Each M-cell holds flooded copies of up to four site traces; cap
	// the fan-out like attribution does so memory stays flat.
	par := normalizeParallelism(opts.Parallelism)
	if par > 2 {
		par = 2
	}
	outs, err := collect(par, len(ms), func(mi int) (distOutcome, error) {
		m := ms[mi]
		// A slightly stiffer rule than the library defaults: with only
		// onset/t0 quiet periods of rank history the early quantiles are
		// coarse, so a longer neutral warmup and a higher threshold keep
		// the quiet prefix alarm-free while the dispersed flood — a
		// persistent positive shift of M/4 · ~0.9 — still crosses fast.
		// History is capped so the references mature (History/2 obs, the
		// point where they freeze during excursions instead of absorbing
		// the flood) within the quiet prefix even in the fast run.
		coord, err := fusion.NewCoordinator(fusion.Config{
			Expect:     len(sites),
			History:    20,
			MinHistory: 8,
			Offset:     0.35,
			Threshold:  1.4,
		})
		if err != nil {
			return distOutcome{}, err
		}
		var o distOutcome
		perSite := make([][]summary.PeriodSummary, len(sites))
		for i, site := range sites {
			tr := site.bg
			if i < m {
				fl, err := flood.GenerateTrace(flood.Config{
					Start:       onset,
					Duration:    span - onset,
					Pattern:     flood.Constant{PerSecond: 0.5 * site.fmin},
					Victim:      victimAddr,
					VictimPort:  80,
					SpoofPrefix: distTruth(i),
					Seed:        seedFor(opts.Seed, "distributed-flood", uint64(m), uint64(i)),
				})
				if err != nil {
					return distOutcome{}, err
				}
				tr = trace.Merge(site.bg.Name+"+flood", site.bg, fl)
				if tr.Span > span {
					tr.ClipSpan(span)
				}
			}
			alarmed, sums, err := distReplaySite(site.name, tr, t0)
			if err != nil {
				return distOutcome{}, err
			}
			if alarmed {
				o.localAlarms++
			}
			perSite[i] = sums
		}

		// Deliver in period order round-robin — each summary censored
		// to its wire form, exactly what the uplink would POST.
		periods := len(perSite[0])
		for p := 0; p < periods; p++ {
			for i := range sites {
				if p < len(perSite[i]) {
					coord.Ingest([]summary.PeriodSummary{perSite[i][p].Censor(wire)})
				}
			}
		}

		if al := coord.FirstAlarm(); al != nil {
			if al.Index < onsetP {
				o.falseAlarm = true
				return o, nil
			}
			o.detected = true
			o.delay = al.Index - onsetP
			if loc := coord.AlarmLocalization(); loc != nil {
				o.monitors = loc.Monitors
				for i := 0; i < m; i++ {
					for _, pfx := range loc.Prefixes {
						if pfx == distTruth(i).String() {
							o.truthFound++
							break
						}
					}
				}
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	fmins := make([]string, len(sites))
	for i, s := range sites {
		fmins[i] = fmt.Sprintf("%s %.1f", s.name, s.fmin)
	}
	t := &Table{
		ID: "distributed",
		Title: fmt.Sprintf("Distributed detection: flood split over M of 4 sites at 0.5x local fmin (λ=%.2f; fmin: %s)",
			distCensor, strings.Join(fmins, ", ")),
		Columns: []string{"M (flooded sites)", "fi per site (SYN/s)", "Local alarms",
			"Fusion detects", "Delay (t0)", "Localized monitors", "Truth /24s found"},
	}
	for mi, m := range ms {
		o := outs[mi]
		rates := make([]string, m)
		for i := 0; i < m; i++ {
			rates[i] = fmt.Sprintf("%.1f", 0.5*sites[i].fmin)
		}
		detected, delay, mons, truth := "no", "-", "-", "-"
		if o.falseAlarm {
			detected = "FALSE ALARM"
		}
		if o.detected {
			detected = "yes"
			delay = fmt.Sprintf("%d", o.delay)
			sorted := append([]string(nil), o.monitors...)
			sort.Strings(sorted)
			mons = strings.Join(sorted, ", ")
			truth = fmt.Sprintf("%d/%d", o.truthFound, m)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			strings.Join(rates, ", "),
			fmt.Sprintf("%d", o.localAlarms),
			detected,
			delay,
			mons,
			truth,
		})
	}
	return []Artifact{t}, nil
}
