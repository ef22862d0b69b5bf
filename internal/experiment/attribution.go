package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// This file measures what the keyed engine (internal/sourcetrack)
// adds over the paper's aggregate detector: not just "a flood left
// this network" but *which* source prefix it left from. One flooding
// stub hides inside a merged four-site background; the aggregate
// SYN-dog must clear the pooled sensitivity floor fmin_agg = a·K̄/t0
// over the *combined* SYN/ACK volume, while each /24 key only has to
// clear its own (tiny) floor — so attribution detects floods the
// aggregate cannot see, and names the source when both see it.

// attributionTruth is the spoofed-source block of the attribution
// flood: a /24 inside the UNC site, so at /24 keying the ground-truth
// answer is exactly this prefix.
var attributionTruth = netip.MustParsePrefix("152.2.77.0/24")

// attrOutcome is one Monte-Carlo repetition of the attribution
// experiment, reduced to what the table aggregates.
type attrOutcome struct {
	// aggDetected/aggFalse mirror RunResult for the aggregate agent.
	aggDetected bool
	aggFalse    bool
	// predicted is the number of keys alarmed inside the flood window;
	// truthIn reports whether the truth key is among them.
	predicted int
	truthIn   bool
	// rank is the truth key's 1-based position in the ranked source
	// list (0 when not tracked at all).
	rank int
	// delay is the truth key's detection delay in periods (valid only
	// when truthIn).
	delay float64
}

// AblationAttribution runs the per-source attribution experiment: a
// constant-rate flood spoofing sources from one /24 inside UNC,
// buried in the merged LBL+Harvard+UNC+Auckland background. For each
// rate (expressed against the aggregate floor fmin_agg) it reports
// the aggregate detector's detection probability next to the keyed
// engine's recall (truth /24 alarmed inside the flood window),
// precision (alarmed keys that are the truth key), the truth key's
// rank in the Sources() ordering, and its detection delay.
func AblationAttribution(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	// Every repetition merges and replays the ~0.5M-record four-site
	// mix twice (aggregate agent + tracker); cap the repetitions so
	// `-run all` stays tractable.
	runs := opts.Runs
	if runs > 8 {
		runs = 8
	}
	span := 20 * time.Minute
	onsetMin, onsetMax := 6*time.Minute, 9*time.Minute
	floodDur := 8 * time.Minute
	if opts.Fast {
		span = 8 * time.Minute
		onsetMin, onsetMax = 2*time.Minute, 3*time.Minute
		floodDur = 4 * time.Minute
	}

	// The four site backgrounds at a unified span, generated once and
	// merged once; every cell replays the merge read-only.
	profiles := []trace.Profile{trace.LBL(), trace.Harvard(), trace.UNC(), trace.Auckland()}
	bgs, err := collect(opts.Parallelism, len(profiles), func(i int) (*trace.Trace, error) {
		p := profiles[i]
		p.Span = span
		return trace.Generate(p, seedFor(opts.Seed, "attribution-bg:"+p.Name))
	})
	if err != nil {
		return nil, err
	}
	merged := bgs[0]
	for _, bg := range bgs[1:] {
		merged = trace.Merge("4-site", merged, bg)
	}

	// The aggregate floor over the pooled background, from Eq. 8:
	// fmin_agg = a·K̄_agg/t0 where K̄_agg is the mean per-period
	// SYN/ACK volume of the merged trace. Measured, not assumed, so
	// the rate multipliers stay honest in fast mode too.
	agentCfg := core.Config{}.Normalized()
	kbar, err := backgroundKBar(merged, agentCfg.T0)
	if err != nil {
		return nil, err
	}
	fminAgg := agentCfg.Offset * kbar / agentCfg.T0.Seconds()

	mults := []float64{0.5, 2, 8}
	cells := len(mults) * runs
	// Each in-flight cell holds its own flooded copy of the merged
	// trace; bound the fan-out so memory stays flat regardless of the
	// machine's CPU count (determinism never depends on parallelism).
	par := normalizeParallelism(opts.Parallelism)
	if par > 4 {
		par = 4
	}
	outs, err := collect(par, cells, func(i int) (attrOutcome, error) {
		mult := mults[i/runs]
		run := i % runs
		rng := rand.New(rand.NewSource(seedFor(opts.Seed, "attribution-cell",
			math.Float64bits(mult), uint64(run))))
		onset := onsetMin + time.Duration(rng.Int63n(int64(onsetMax-onsetMin)))
		fl, err := flood.GenerateTrace(flood.Config{
			Start:       onset,
			Duration:    floodDur,
			Pattern:     flood.Constant{PerSecond: mult * fminAgg},
			Victim:      victimAddr,
			VictimPort:  80,
			SpoofPrefix: attributionTruth,
			Seed:        rng.Int63(),
		})
		if err != nil {
			return attrOutcome{}, err
		}
		mixed := trace.Merge(merged.Name+"+flood", merged, fl)
		if mixed.Span > merged.Span {
			mixed.ClipSpan(merged.Span)
		}

		agent, err := core.NewAgent(core.Config{})
		if err != nil {
			return attrOutcome{}, err
		}
		if _, err := agent.ProcessTrace(mixed); err != nil {
			return attrOutcome{}, err
		}
		res := resultFromAgent(agent, RunConfig{Onset: onset, FloodDuration: floodDur}, false)

		tk, err := sourcetrack.New(sourcetrack.Config{
			KeyBits:    24,
			MaxSources: 4096,
			Agent:      core.Config{},
		})
		if err != nil {
			return attrOutcome{}, err
		}
		if err := tk.ProcessTrace(mixed); err != nil {
			return attrOutcome{}, err
		}

		t0 := agent.Config().T0
		onsetP := int(onset / t0)
		endP := int((onset + floodDur) / t0)
		out := attrOutcome{aggDetected: res.Detected, aggFalse: res.FalseAlarm}
		for ri, s := range tk.Sources(0) {
			if s.Key == attributionTruth {
				out.rank = ri + 1
			}
			if !s.Alarmed || s.AlarmPeriod < onsetP || s.AlarmPeriod > endP+1 {
				continue
			}
			out.predicted++
			if s.Key == attributionTruth {
				out.truthIn = true
				out.delay = float64(s.AlarmPeriod - onsetP)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "attribution",
		Title: fmt.Sprintf("Per-source attribution in a 4-site background (truth %v, fmin_agg = %.1f SYN/s)",
			attributionTruth, fminAgg),
		Columns: []string{"fi/fmin_agg", "fi (SYN/s)", "Aggregate Det.", "Keyed Recall",
			"Keyed Precision", "Truth Rank", "Keyed Delay (t0)", "Runs"},
	}
	for mi, mult := range mults {
		var aggDet, recall, precision, rankSum, delaySum float64
		ranked, hits := 0, 0
		for run := 0; run < runs; run++ {
			o := outs[mi*runs+run]
			if o.aggDetected && !o.aggFalse {
				aggDet++
			}
			if o.truthIn {
				recall++
				delaySum += o.delay
				hits++
			}
			if o.predicted == 0 {
				precision++ // vacuously precise: nothing accused
			} else if o.truthIn {
				precision += 1 / float64(o.predicted)
			}
			if o.rank > 0 {
				rankSum += float64(o.rank)
				ranked++
			}
		}
		n := float64(runs)
		rank, delay := "-", "-"
		if ranked > 0 {
			rank = fmt.Sprintf("%.1f", rankSum/float64(ranked))
		}
		if hits > 0 {
			if d := delaySum / float64(hits); d < 1 {
				delay = "<1"
			} else {
				delay = fmt.Sprintf("%.2f", d)
			}
		}
		t.Rows = append(t.Rows, []string{
			trimFloat(mult),
			fmt.Sprintf("%.1f", mult*fminAgg),
			fmt.Sprintf("%.2f", aggDet/n),
			fmt.Sprintf("%.2f", recall/n),
			fmt.Sprintf("%.2f", precision/n),
			rank,
			delay,
			fmt.Sprintf("%d", runs),
		})
	}
	return []Artifact{t}, nil
}
