package daemon

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sourcetrack"
)

// MigrateState rewrites a persisted daemon state so it restores
// cleanly under cfg/track, carrying every piece of evidence that keeps
// its meaning across the change and resetting the rest. The matrix:
//
//   - Alpha / Offset (a) / Threshold (N): rewritten in place, full
//     state carried. The statistics these parameters consume are
//     per-period quantities whose meaning does not change; the new
//     parameters simply apply from the next observation on.
//   - T0 / MinK / WarmupPeriods: the period semantics change, so the
//     per-period CUSUM evidence cannot be reinterpreted. The learned
//     K̄ baseline is a rate, though — it is carried, scaled by
//     newT0/oldT0, while the CUSUM statistic, alarm and report history
//     reset and replay restarts from period zero.
//   - Keyed half: delegated to sourcetrack.MigrateSnapshot (same
//     matrix per key). When the keyed change is not portable (key
//     bits, T0), or tracking is being disabled, or the aggregate reset
//     desynchronized the period clocks, the keyed half resets — the
//     loader fast-forwards a fresh tracker to the aggregate's resume
//     point.
//
// Corrupt snapshots are not MigrateState's business: it rewrites
// configuration, and restoring the result still runs every structural
// validation.
func MigrateState(st State, cfg core.Config, track *sourcetrack.Config) State {
	want := cfg.Normalized()
	old := st.Config.Normalized()
	if old.T0 != want.T0 || old.MinK != want.MinK || old.WarmupPeriods != want.WarmupPeriods {
		// K̄ is SYN/ACKs per period: the same traffic rate under a new
		// period length scales linearly.
		st.KBar *= float64(want.T0) / float64(old.T0)
		st.Y = 0
		st.AlarmLatched = false
		st.Observations = 0
		st.OnsetIndex = 0
		st.Reports = nil
		st.Alarm = nil
	}
	st.Config = want

	switch {
	case track == nil:
		st.Sources = nil
	case st.Sources == nil:
		// Stays nil: the loader fast-forwards a fresh tracker.
	default:
		ks, ok := sourcetrack.MigrateSnapshot(*st.Sources, *track)
		if ok && ks.Periods == len(st.Reports) {
			st.Sources = &ks
		} else {
			st.Sources = nil
		}
	}
	return st
}

// LoadOrNewStateWithPolicy is LoadOrNewState with a mismatch policy:
// under PolicyError it is exactly LoadOrNewState; under PolicyMigrate
// a configuration mismatch re-reads the state file, rewrites it via
// MigrateState and restores the result; under PolicyReset the
// snapshot is discarded and the agent starts fresh. Corrupt snapshots
// (core.ErrBadSnapshot, sourcetrack.ErrBadSnapshot) and I/O failures
// stay fatal under every policy — a policy decides what to do with a
// readable snapshot that asks for different parameters, never papers
// over a broken one.
func LoadOrNewStateWithPolicy(statePath string, cfg core.Config, track *sourcetrack.Config, policy Policy) (*core.Agent, *sourcetrack.Tracker, StateAction, error) {
	agent, tracker, resumed, err := LoadOrNewState(statePath, cfg, track)
	if err == nil {
		if resumed {
			return agent, tracker, ActionResumed, nil
		}
		return agent, tracker, ActionFresh, nil
	}
	mismatch := errors.Is(err, ErrConfigMismatch) || errors.Is(err, sourcetrack.ErrConfigMismatch)
	if !mismatch || policy == PolicyError {
		return nil, nil, "", err
	}

	if policy == PolicyReset {
		a, err := core.NewAgent(cfg)
		if err != nil {
			return nil, nil, "", err
		}
		tr, err := freshTracker(track, 0)
		if err != nil {
			return nil, nil, "", err
		}
		return a, tr, ActionReset, nil
	}

	// PolicyMigrate: rewrite the snapshot for the new configuration and
	// restore the result through the same strict path.
	st, err := ReadStateFile(statePath)
	if err != nil {
		return nil, nil, "", fmt.Errorf("migrate %s: %w", statePath, err)
	}
	a, tr, err := restoreState(MigrateState(st, cfg, track), track)
	if err != nil {
		return nil, nil, "", fmt.Errorf("migrate %s: %w", statePath, err)
	}
	return a, tr, ActionMigrated, nil
}

// restoreState rebuilds the live halves of a State: the aggregate
// agent, and either the restored keyed tracker (state present and
// tracking requested) or a fresh one fast-forwarded to the aggregate's
// resume point (tracking requested over an aggregate-only state). It
// is the in-memory twin of LoadOrNewState's restore path, used by the
// supervisor's reload to rebuild an agent from captured live state
// without a disk round-trip.
func restoreState(st State, track *sourcetrack.Config) (*core.Agent, *sourcetrack.Tracker, error) {
	a, err := core.RestoreAgent(st.Snapshot)
	if err != nil {
		return nil, nil, err
	}
	if st.Sources != nil && track != nil {
		tr, err := sourcetrack.Restore(*st.Sources, *track)
		if err != nil {
			return nil, nil, err
		}
		return a, tr, nil
	}
	tr, err := freshTracker(track, len(st.Reports))
	if err != nil {
		return nil, nil, err
	}
	return a, tr, nil
}
