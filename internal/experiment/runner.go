package experiment

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/trace"
)

// Runner executes trace-driven flooding cells on the counts fast path
// — the one place a flood is binned over background counts and
// replayed — with no steady-state allocation: one agent and one
// overlay buffer are reused across calls, restarted between cells.
// Run executes its single cell on a fresh Runner; Sweep pools Runners
// so its per-cell loop costs O(periods + flood events) and touches the
// allocator only for the cell's RNG. A Runner is not safe for
// concurrent use; a reused Runner's results are identical to a fresh
// one's (pinned by TestRunnerMatchesRun), so pooling cannot change a
// sweep's output.
type Runner struct {
	counts *trace.PeriodCounts
	agent  *core.Agent
	// overlay is the per-cell input: OutSYN is scratch the background
	// counts are copied into before the flood is binned on top;
	// InSYNACK aliases the shared background (floods add no SYN/ACKs).
	overlay trace.PeriodCounts
}

// NewRunner builds a Runner over pre-aggregated, read-only background
// counts. The counts' period length must match the agent
// configuration's observation period.
func NewRunner(agentCfg core.Config, counts *trace.PeriodCounts) (*Runner, error) {
	if counts == nil || counts.Periods() == 0 {
		return nil, errors.New("experiment: runner needs non-empty background counts")
	}
	agent, err := core.NewAgent(agentCfg)
	if err != nil {
		return nil, err
	}
	if counts.T0 != agent.Config().T0 {
		return nil, fmt.Errorf("experiment: counts period %v does not match agent period %v",
			counts.T0, agent.Config().T0)
	}
	return &Runner{
		counts: counts,
		agent:  agent,
		overlay: trace.PeriodCounts{
			T0:       counts.T0,
			OutSYN:   make([]float64, counts.Periods()),
			InSYNACK: counts.InSYNACK,
		},
	}, nil
}

// Run executes one cell, equivalent to the package-level Run with
// BackgroundCounts set to the runner's counts — except the returned
// Statistic and X series are left nil, since materializing them would
// put two allocations back into the per-cell loop. Use the
// package-level Run when the series are needed. cfg's background
// fields (Profile, BackgroundCounts) are ignored.
func (r *Runner) Run(cfg RunConfig) (RunResult, error) {
	return r.run(cfg, false)
}

// run bins cfg's flood over the background into the overlay, replays
// it through the restarted agent and reads the result off it, with the
// yn and Xn series when series is set.
func (r *Runner) run(cfg RunConfig, series bool) (RunResult, error) {
	floodCfg, err := cfg.floodConfig()
	if err != nil {
		return RunResult{}, err
	}
	copy(r.overlay.OutSYN, r.counts.OutSYN)
	if err := flood.CountInto(floodCfg, r.overlay.T0, r.overlay.OutSYN); err != nil {
		return RunResult{}, fmt.Errorf("experiment: flood: %w", err)
	}
	r.agent.Restart()
	if _, err := r.agent.ProcessCounts(&r.overlay); err != nil {
		return RunResult{}, err
	}
	return resultFromAgent(r.agent, cfg, series), nil
}
