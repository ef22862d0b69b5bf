package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Artifact is a renderable experiment output (Table or Figure).
type Artifact interface {
	Render(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// Compile-time checks.
var (
	_ Artifact = (*Table)(nil)
	_ Artifact = (*Figure)(nil)
)

// Options tune experiment execution.
type Options struct {
	// Seed drives all randomness; the same seed reproduces the same
	// artifacts bit-for-bit.
	Seed int64
	// Runs is the Monte-Carlo repetition count for Tables 2-3
	// (default 20).
	Runs int
	// Fast shrinks spans and run counts for smoke tests and CI; the
	// shapes survive, the statistics get noisier.
	Fast bool
	// Parallelism bounds how many workers fan out Monte-Carlo
	// repetitions and sweep cells; 0 means one worker per CPU
	// (runtime.GOMAXPROCS). Artifacts are bit-identical across all
	// Parallelism values for the same Seed: each work item derives its
	// own RNG from a stable hash of its identity, never a shared
	// stream.
	Parallelism int
}

func (o *Options) applyDefaults() {
	if o.Runs == 0 {
		o.Runs = 20
		if o.Fast {
			o.Runs = 3
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Experiment couples an artifact id with its generator.
type Experiment struct {
	ID    string
	Title string
	Func  func(Options) ([]Artifact, error)
}

// Registry lists every reproducible artifact in the paper's order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Summary of the trace features", Table1},
		{"fig3", "Dynamics of SYN and SYN/ACK packets at LBL and Harvard", Fig3},
		{"fig4", "Dynamics of SYN and SYN/ACK packets at UNC and Auckland", Fig4},
		{"fig5", "CUSUM test statistics under normal operation", Fig5},
		{"fig6", "The trace-simulation flooding attack experiment (structural)", Fig6},
		{"table2", "Detection performance of the SYN-dog at UNC", Table2},
		{"fig7", "SYN flooding detection sensitivity at the SYN-dog of UNC", Fig7},
		{"table3", "Detection performance of the SYN-dog at Auckland", Table3},
		{"fig8", "SYN flooding detection sensitivity at the SYN-dog of Auckland", Fig8},
		{"fig9", "The improvement of flooding detection sensitivity", Fig9},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// shrinkSpan reduces a profile's span in fast mode, keeping at least
// minSpan.
func shrinkSpan(p trace.Profile, fast bool, minSpan time.Duration) trace.Profile {
	if !fast {
		return p
	}
	span := p.Span / 6
	if span < minSpan {
		span = minSpan
	}
	p.Span = span
	return p
}

// backgroundKBar returns K̄ of a background trace: its mean
// per-period SYN/ACK count at observation period t0, the scale of the
// Eq. 8 sensitivity floor fmin = a·K̄/t0.
func backgroundKBar(tr *trace.Trace, t0 time.Duration) (float64, error) {
	counts, err := tr.Aggregate(t0)
	if err != nil {
		return 0, err
	}
	var kbar float64
	for _, v := range counts.InSYNACK {
		kbar += v
	}
	return kbar / float64(counts.Periods()), nil
}

// Table1 regenerates the trace-feature summary. LBL and Harvard are
// bi-directional captures; UNC and Auckland are reported as
// uni-directional halves, exactly as Table 1 lists them.
func Table1(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	t := &Table{
		ID:      "table1",
		Title:   "A summary of the trace features",
		Columns: []string{"Trace", "Duration", "Traffic type", "Records", "SYN", "SYN/ACK"},
	}
	row := func(tr *trace.Trace, traffic string, syn, synack int) []string {
		return []string{
			tr.Name,
			tr.Span.String(),
			traffic,
			fmt.Sprintf("%d", len(tr.Records)),
			fmt.Sprintf("%d", syn),
			fmt.Sprintf("%d", synack),
		}
	}
	profiles := trace.Profiles()
	groups, err := collect(opts.Parallelism, len(profiles), func(i int) ([][]string, error) {
		p := shrinkSpan(profiles[i], opts.Fast, 5*time.Minute)
		tr, err := trace.Generate(p, opts.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		s := tr.Summarize()
		if p.Bidirectional {
			return [][]string{row(tr, "Bi-directional", s.OutSYN+s.InSYN, s.InSYNACK+s.OutSYNACK)}, nil
		}
		in, out := tr.Split()
		inS, outS := in.Summarize(), out.Summarize()
		return [][]string{
			row(in, "Uni-directional", inS.InSYN, inS.InSYNACK),
			row(out, "Uni-directional", outS.OutSYN, outS.OutSYNACK),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		t.Rows = append(t.Rows, g...)
	}
	return []Artifact{t}, nil
}

// dynamicsFigure plots per-period SYN and SYN/ACK counts for one site
// (the building block of Figures 3 and 4). For bidirectional sites
// both directions are pooled, matching the paper's note that the LBL
// and Harvard figures aggregate both directions.
func dynamicsFigure(id string, p trace.Profile, seed int64) (*Figure, error) {
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	const bin = 20 * time.Second
	pc, err := tr.Aggregate(bin)
	if err != nil {
		return nil, err
	}
	syn, ack := pc.OutSYN, pc.InSYNACK
	if p.Bidirectional {
		// The flipped trace's outgoing SYNs and incoming SYN/ACKs are
		// the other direction's halves of the pool.
		back, err := tr.Flip().Aggregate(bin)
		if err != nil {
			return nil, err
		}
		for i := range syn {
			syn[i] += back.OutSYN[i]
			ack[i] += back.InSYNACK[i]
		}
	}
	x := make([]float64, len(syn))
	for i := range x {
		x[i] = float64(i) * bin.Minutes()
	}
	synLabel, ackLabel := "SYN", "SYN/ACK"
	if !p.Bidirectional {
		synLabel, ackLabel = "Outgoing SYN", "Incoming SYN/ACK"
	}
	return &Figure{
		ID:     id,
		Title:  fmt.Sprintf("The dynamics of SYN and SYN/ACK packets at %s", p.Name),
		XLabel: "Time (minutes)",
		YLabel: "Number of packets per 20 s",
		Series: []Series{
			{Label: synLabel, X: x, Y: syn},
			{Label: ackLabel, X: x, Y: ack},
		},
	}, nil
}

// dynamicsPanels renders the two dynamics panels of Figure 3 or 4,
// one worker per site.
func dynamicsPanels(opts Options, ids [2]string, profiles [2]trace.Profile, seeds [2]int64) ([]Artifact, error) {
	figs, err := collect(opts.Parallelism, len(ids), func(i int) (*Figure, error) {
		return dynamicsFigure(ids[i], shrinkSpan(profiles[i], opts.Fast, 5*time.Minute), seeds[i])
	})
	if err != nil {
		return nil, err
	}
	return []Artifact{figs[0], figs[1]}, nil
}

// Fig3 regenerates the LBL and Harvard dynamics.
func Fig3(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	return dynamicsPanels(opts,
		[2]string{"fig3a", "fig3b"},
		[2]trace.Profile{trace.LBL(), trace.Harvard()},
		[2]int64{opts.Seed, opts.Seed + 1})
}

// Fig4 regenerates the UNC and Auckland dynamics.
func Fig4(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	return dynamicsPanels(opts,
		[2]string{"fig4a", "fig4b"},
		[2]trace.Profile{trace.UNC(), trace.Auckland()},
		[2]int64{opts.Seed + 2, opts.Seed + 3})
}

// normalOperationFigure runs the detector over flood-free background
// traffic and plots yn (one panel of Figure 5).
func normalOperationFigure(id string, p trace.Profile, seed int64) (*Figure, error) {
	tr, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := agent.ProcessTrace(tr); err != nil {
		return nil, err
	}
	ys := agent.Statistics()
	x := make([]float64, len(ys))
	for i := range x {
		x[i] = float64(i+1) * agent.Config().T0.Minutes()
	}
	title := fmt.Sprintf("CUSUM test statistics under normal operation at %s", p.Name)
	if agent.Alarmed() {
		title += " [FALSE ALARM]"
	}
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "Time (minutes)",
		YLabel: "yn",
		Series: []Series{{Label: p.Name, X: x, Y: ys}},
	}, nil
}

// Fig5 regenerates the normal-operation statistic at Harvard, UNC and
// Auckland. The expected outcome: yn mostly zero, isolated spikes far
// below N = 1.05, zero false alarms.
func Fig5(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	sites := []trace.Profile{trace.Harvard(), trace.UNC(), trace.Auckland()}
	ids := []string{"fig5a", "fig5b", "fig5c"}
	out := make([]Artifact, len(sites))
	err := ForEach(opts.Parallelism, len(sites), func(i int) error {
		fig, err := normalOperationFigure(ids[i], shrinkSpan(sites[i], opts.Fast, 5*time.Minute), opts.Seed+int64(i)*11)
		if err != nil {
			return err
		}
		out[i] = fig
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// uncSweepConfig returns the Table 2 methodology: UNC background,
// 10-minute constant flood, onset uniform in 3-9 minutes.
func uncSweepConfig(opts Options) SweepConfig {
	return SweepConfig{
		Profile:       trace.UNC(),
		Agent:         core.Config{},
		Rates:         []float64{37, 40, 45, 60, 80, 120},
		Runs:          opts.Runs,
		OnsetMin:      3 * time.Minute,
		OnsetMax:      9 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          opts.Seed,
		Parallelism:   opts.Parallelism,
	}
}

// Table2 regenerates the UNC detection-performance table.
func Table2(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	cfg := uncSweepConfig(opts)
	if opts.Fast {
		cfg.Profile.Span = 15 * time.Minute
		cfg.OnsetMin, cfg.OnsetMax = 2*time.Minute, 4*time.Minute
		cfg.FloodDuration = 8 * time.Minute
	}
	perfs, err := Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return []Artifact{PerformanceTable("table2",
		"Detection performance of the SYN-dog at UNC", perfs)}, nil
}

// sensitivityFigure plots yn for one run per rate (Figures 7 and 8),
// one worker per rate.
func sensitivityFigure(id, site string, p trace.Profile, agentCfg core.Config, rates []float64, onset time.Duration, seed int64, parallelism int) (*Figure, error) {
	series, err := collect(parallelism, len(rates), func(i int) (Series, error) {
		res, err := Run(RunConfig{
			Profile:       p,
			Agent:         agentCfg,
			Rate:          rates[i],
			Onset:         onset,
			FloodDuration: 10 * time.Minute,
			Seed:          seed + int64(i)*101,
		})
		if err != nil {
			return Series{}, err
		}
		t0 := agentCfg.T0
		if t0 == 0 {
			t0 = core.DefaultObservationPeriod
		}
		x := make([]float64, len(res.Statistic))
		for j := range x {
			x[j] = float64(j+1) * t0.Minutes()
		}
		return Series{
			Label: fmt.Sprintf("fi=%s SYN/s", trimFloat(rates[i])),
			X:     x,
			Y:     res.Statistic,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     id,
		Title:  fmt.Sprintf("SYN flooding detection sensitivity at the SYN-dog of %s", site),
		XLabel: "Time (minutes)",
		YLabel: "yn",
		Series: series,
	}, nil
}

// Fig7 regenerates the UNC sensitivity curves at fi = 45, 60, 80.
func Fig7(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	p := trace.UNC()
	if opts.Fast {
		p.Span = 15 * time.Minute
	}
	fig, err := sensitivityFigure("fig7", "UNC",
		p, core.Config{}, []float64{45, 60, 80}, 5*time.Minute, opts.Seed, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return []Artifact{fig}, nil
}

// aucklandSweepConfig returns the Table 3 methodology: Auckland
// background, onset uniform in 3-136 minutes.
func aucklandSweepConfig(opts Options) SweepConfig {
	return SweepConfig{
		Profile:       trace.Auckland(),
		Agent:         core.Config{},
		Rates:         []float64{1.5, 1.75, 2, 5, 10},
		Runs:          opts.Runs,
		OnsetMin:      3 * time.Minute,
		OnsetMax:      136 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          opts.Seed,
		Parallelism:   opts.Parallelism,
	}
}

// Table3 regenerates the Auckland detection-performance table.
func Table3(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	cfg := aucklandSweepConfig(opts)
	if opts.Fast {
		cfg.OnsetMax = 20 * time.Minute
		cfg.Profile.Span = 40 * time.Minute
	}
	perfs, err := Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return []Artifact{PerformanceTable("table3",
		"Detection performance of the SYN-dog at Auckland", perfs)}, nil
}

// Fig8 regenerates the Auckland sensitivity curves at fi = 2, 5, 10.
func Fig8(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	p := trace.Auckland()
	if opts.Fast {
		p.Span = 40 * time.Minute
	}
	fig, err := sensitivityFigure("fig8", "Auckland",
		p, core.Config{}, []float64{2, 5, 10}, 20*time.Minute, opts.Seed, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return []Artifact{fig}, nil
}

// Fig9 regenerates the site-tuned sensitivity improvement: with
// a = 0.2 and N = 0.6 the UNC SYN-dog detects a 15 SYN/s flood that
// the universal parameters cannot see, without extra false alarms.
func Fig9(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	p := trace.UNC()
	if opts.Fast {
		p.Span = 15 * time.Minute
	}
	tuned := core.Config{Offset: 0.2, Threshold: 0.6}
	fig, err := sensitivityFigure("fig9", "UNC (tuned: a=0.2, N=0.6)",
		p, tuned, []float64{15}, 5*time.Minute, opts.Seed, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	fig.Title = "The improvement of flooding detection sensitivity (fi = 15 SYN/s)"

	// Contrast series: the universal parameters on the same flood.
	res, err := Run(RunConfig{
		Profile:       p,
		Agent:         core.Config{},
		Rate:          15,
		Onset:         5 * time.Minute,
		FloodDuration: 10 * time.Minute,
		Seed:          opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(res.Statistic))
	for j := range x {
		x[j] = float64(j+1) * core.DefaultObservationPeriod.Minutes()
	}
	fig.Series = append(fig.Series, Series{
		Label: "default a=0.35, N=1.05",
		X:     x,
		Y:     res.Statistic,
	})
	return []Artifact{fig}, nil
}

// SortedIDs returns the registry ids, sorted, for CLI help.
func SortedIDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}
