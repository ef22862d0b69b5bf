package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/trace"
)

// victimAddr is the flood target used across experiments; any external
// address works since detection happens at the source-side router.
var victimAddr = netip.MustParseAddr("11.99.99.1")

// RunConfig describes one trace-driven flooding run (Figure 6): a
// background profile, an agent configuration, and a flood.
type RunConfig struct {
	// Profile generates the background traffic when BackgroundCounts
	// is nil.
	Profile trace.Profile
	// BackgroundCounts, when non-nil, is the pre-aggregated background
	// used instead of generating one from Profile+Seed: callers
	// aggregate a background once and share the read-only counts
	// across every Monte-Carlo repetition, making each cell
	// O(periods + flood events) instead of O(records). Its T0 must
	// match the agent's observation period.
	BackgroundCounts *trace.PeriodCounts
	// Agent configures the SYN-dog under test.
	Agent core.Config
	// Rate is fi, the flood rate seen by this stub's outbound sniffer,
	// in SYN/s.
	Rate float64
	// Onset is the flood start time.
	Onset time.Duration
	// FloodDuration is the attack length (paper: 10 minutes).
	FloodDuration time.Duration
	// Pattern overrides the flood pattern; nil means Constant{Rate}.
	Pattern flood.Pattern
	// Seed drives both background and flood randomness.
	Seed int64
}

// RunResult is the outcome of one run.
type RunResult struct {
	// Detected reports whether the alarm fired during the flood (one
	// trailing period of slack is allowed for boundary effects).
	Detected bool
	// DetectionPeriods is the delay from the period containing the
	// onset to the alarm period, in observation periods. 0 means the
	// alarm fired at the end of the very period the flood started in
	// (the paper prints this as "<1").
	DetectionPeriods int
	// AlarmPeriod and OnsetPeriod are the raw period indices
	// (AlarmPeriod is -1 when not detected).
	AlarmPeriod int
	OnsetPeriod int
	// FalseAlarm reports an alarm before the onset.
	FalseAlarm bool
	// Statistic is the full yn series of the run.
	Statistic []float64
	// X is the full normalized-observation series Xn of the run (the
	// CUSUM input), one value per period.
	X []float64
}

// Run executes one trace-driven flooding experiment on the counts
// path: aggregate (or reuse pre-aggregated) background period counts
// and run the cell on a Runner over them, keeping the full yn and Xn
// series. No record is materialized, merged, or replayed; the tests
// pin the result against streaming the merged records through the
// ingest pipeline.
func Run(cfg RunConfig) (RunResult, error) {
	// Refuse a bad flood before synthesizing a background for it.
	if _, err := cfg.floodConfig(); err != nil {
		return RunResult{}, err
	}
	counts := cfg.BackgroundCounts
	if counts == nil {
		bg, err := trace.Generate(cfg.Profile, cfg.Seed)
		if err != nil {
			return RunResult{}, fmt.Errorf("experiment: background: %w", err)
		}
		if counts, err = bg.Aggregate(cfg.Agent.Normalized().T0); err != nil {
			return RunResult{}, fmt.Errorf("experiment: background: %w", err)
		}
	}
	r, err := NewRunner(cfg.Agent, counts)
	if err != nil {
		return RunResult{}, err
	}
	return r.run(cfg, true)
}

// floodConfig validates the flood parameters and translates them into
// the flood.Config a Runner bins.
func (cfg *RunConfig) floodConfig() (flood.Config, error) {
	if cfg.Rate <= 0 && cfg.Pattern == nil {
		return flood.Config{}, errors.New("experiment: flood rate must be positive")
	}
	if cfg.FloodDuration <= 0 {
		return flood.Config{}, errors.New("experiment: flood duration must be positive")
	}
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = flood.Constant{PerSecond: cfg.Rate}
	}
	return flood.Config{
		Start:      cfg.Onset,
		Duration:   cfg.FloodDuration,
		Pattern:    pattern,
		Victim:     victimAddr,
		VictimPort: 80,
		Seed:       cfg.Seed + 7919,
	}, nil
}

// resultFromAgent reads one finished run off the agent. With series
// set the full yn and Xn series are copied out; sweeps skip them, as
// the Monte-Carlo aggregation consumes only the scalar outcome.
func resultFromAgent(agent *core.Agent, cfg RunConfig, series bool) RunResult {
	t0 := agent.Config().T0
	res := RunResult{
		AlarmPeriod: -1,
		OnsetPeriod: int(cfg.Onset / t0),
	}
	if series {
		reports := agent.Reports()
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = r.X
		}
		res.Statistic = agent.Statistics()
		res.X = xs
	}
	al := agent.FirstAlarm()
	if al == nil {
		return res
	}
	res.AlarmPeriod = al.Period
	if al.Period < res.OnsetPeriod {
		res.FalseAlarm = true
		return res
	}
	floodEndPeriod := int((cfg.Onset + cfg.FloodDuration) / t0)
	if al.Period <= floodEndPeriod+1 {
		res.Detected = true
		res.DetectionPeriods = al.Period - res.OnsetPeriod
	}
	return res
}

// Performance aggregates Monte-Carlo runs at one flood rate.
type Performance struct {
	// Rate is fi in SYN/s.
	Rate float64
	// DetectionProb is the fraction of runs that detected the flood.
	DetectionProb float64
	// MeanDetectionPeriods averages the detection delay over detected
	// runs, in observation periods (NaN if none detected).
	MeanDetectionPeriods float64
	// FalseAlarms counts runs that alarmed before the onset.
	FalseAlarms int
	// Runs is the number of Monte-Carlo repetitions.
	Runs int
}

// SweepConfig parameterizes a detection-performance sweep (Tables 2-3).
type SweepConfig struct {
	Profile trace.Profile
	// Background, when non-nil, is replayed as the per-site background
	// instead of generating one from Profile — for callers that already
	// hold the trace (pcap loads, repeated sweeps over one site) and
	// for benchmarks that amortize generation outside the measured
	// loop. Treated as read-only.
	Background *trace.Trace
	Agent      core.Config
	// Rates are the fi values to evaluate.
	Rates []float64
	// Runs is the Monte-Carlo repetition count per rate.
	Runs int
	// OnsetMin/OnsetMax bound the uniformly random flood start (the
	// paper: 3-9 min at UNC, 3-136 min at Auckland).
	OnsetMin, OnsetMax time.Duration
	// FloodDuration is the attack length (paper: 10 min).
	FloodDuration time.Duration
	// Seed drives run randomization.
	Seed int64
	// Parallelism bounds the worker count fanning the (rate, run)
	// cells out; 0 means one worker per CPU. Any value produces
	// bit-identical results: every cell derives its own RNG from
	// (Seed, site, rate, run).
	Parallelism int
}

func (c *SweepConfig) validate() error {
	if len(c.Rates) == 0 || c.Runs < 1 {
		return errors.New("experiment: sweep needs rates and runs")
	}
	if c.OnsetMin < 0 || c.OnsetMax < c.OnsetMin {
		return errors.New("experiment: bad onset window")
	}
	if c.FloodDuration <= 0 {
		return errors.New("experiment: bad flood duration")
	}
	return nil
}

// cell returns the run of the i-th (rate, run) cell, rate-major. Its
// onset and seed come from an RNG derived from (Seed, site, rate,
// run), so a cell's outcome does not depend on which worker runs it.
func (c *SweepConfig) cell(i int) RunConfig {
	rate := c.Rates[i/c.Runs]
	run := i % c.Runs
	rng := rand.New(rand.NewSource(seedFor(c.Seed, "sweep-cell:"+c.Profile.Name,
		math.Float64bits(rate), uint64(run))))
	onset := c.OnsetMin
	if c.OnsetMax > c.OnsetMin {
		onset += time.Duration(rng.Int63n(int64(c.OnsetMax - c.OnsetMin)))
	}
	return RunConfig{
		Agent:         c.Agent,
		Rate:          rate,
		Onset:         onset,
		FloodDuration: c.FloodDuration,
		Seed:          rng.Int63(),
	}
}

// Sweep measures detection probability and mean detection time per
// rate, reproducing the methodology behind Tables 2 and 3. The
// background trace is generated (or taken from cfg.Background) and
// aggregated into per-period counts exactly once, then shared
// read-only across every cell; cells run on pooled Runners, so each
// cell costs O(periods + flood events) with no per-cell allocation,
// rather than O(records log records). The (rate, run) cells fan out
// over cfg.Parallelism workers, each deriving its own RNG so the
// result is independent of scheduling.
func Sweep(cfg SweepConfig) ([]Performance, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bg := cfg.Background
	if bg == nil {
		var err error
		bg, err = trace.Generate(cfg.Profile, seedFor(cfg.Seed, "sweep-background:"+cfg.Profile.Name))
		if err != nil {
			return nil, fmt.Errorf("experiment: sweep background: %w", err)
		}
	}
	counts, err := bg.Aggregate(cfg.Agent.Normalized().T0)
	if err != nil {
		return nil, fmt.Errorf("experiment: sweep background: %w", err)
	}
	// Cells run on pooled Runners: each worker grabs one, restarts its
	// agent and bins the flood into its scratch overlay, so the
	// per-cell loop never touches the allocator. Which runner serves
	// which cell cannot matter — a restarted agent is indistinguishable
	// from a fresh one — so pooling preserves the
	// bit-identical-at-any-Parallelism guarantee.
	var runners sync.Pool
	cells := len(cfg.Rates) * cfg.Runs
	results := make([]RunResult, cells)
	err = ForEach(cfg.Parallelism, cells, func(i int) error {
		r, _ := runners.Get().(*Runner)
		if r == nil {
			var err error
			r, err = NewRunner(cfg.Agent, counts)
			if err != nil {
				return err
			}
		}
		res, err := r.Run(cfg.cell(i))
		if err != nil {
			return err
		}
		runners.Put(r)
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Performance, 0, len(cfg.Rates))
	for ri, rate := range cfg.Rates {
		perf := Performance{Rate: rate, Runs: cfg.Runs}
		detected := 0
		totalDelay := 0.0
		for run := 0; run < cfg.Runs; run++ {
			res := results[ri*cfg.Runs+run]
			if res.FalseAlarm {
				perf.FalseAlarms++
				continue
			}
			if res.Detected {
				detected++
				totalDelay += float64(res.DetectionPeriods)
			}
		}
		perf.DetectionProb = float64(detected) / float64(cfg.Runs)
		if detected > 0 {
			perf.MeanDetectionPeriods = totalDelay / float64(detected)
		}
		out = append(out, perf)
	}
	return out, nil
}

// PerformanceTable renders a sweep as a Table 2/3-style table.
func PerformanceTable(id, title string, perfs []Performance) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"fi (SYN/s)", "Detection Prob.", "Detection Time (t0)", "Runs"},
	}
	for _, p := range perfs {
		dt := "-"
		if p.DetectionProb > 0 {
			if p.MeanDetectionPeriods < 1 {
				dt = "<1"
			} else {
				dt = fmt.Sprintf("%.2f", p.MeanDetectionPeriods)
			}
		}
		t.Rows = append(t.Rows, []string{
			trimFloat(p.Rate),
			fmt.Sprintf("%.2f", p.DetectionProb),
			dt,
			fmt.Sprintf("%d", p.Runs),
		})
	}
	return t
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
