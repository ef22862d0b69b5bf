package daemon

import (
	"errors"
	"fmt"
	"io/fs"

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

// startState reads statePath and hands restore the state an agent
// under cfg/track starts from, settling a configuration mismatch by
// policy. restore gets nil to start fresh — there is no snapshot
// (ActionFresh), or PolicyReset discards a mismatched one
// (ActionReset) — and otherwise the snapshot as it stands
// (ActionResumed) or, when that restore fails on a mismatch under
// PolicyMigrate, MigrateState's rewrite of it (ActionMigrated).
// restore is the caller's strict restore through restoreState; taking
// it as a callback keeps the snapshot to one restore when it matches.
func startState(statePath string, cfg core.Config, track *sourcetrack.Config, policy Policy, restore func(*State) error) (StateAction, error) {
	if statePath == "" {
		return ActionFresh, restore(nil)
	}
	st, err := ReadStateFile(statePath)
	if errors.Is(err, fs.ErrNotExist) {
		return ActionFresh, restore(nil)
	}
	if err != nil {
		return "", fmt.Errorf("resume from %s: %w", statePath, err)
	}
	err = restore(&st)
	if err == nil {
		return ActionResumed, nil
	}
	mismatch := errors.Is(err, ErrConfigMismatch) || errors.Is(err, sourcetrack.ErrConfigMismatch)
	switch {
	case !mismatch || policy == PolicyError:
		return "", fmt.Errorf("resume from %s: %w", statePath, err)
	case policy == PolicyReset:
		return ActionReset, restore(nil)
	}
	// PolicyMigrate: rewrite the snapshot for the new configuration and
	// restore the result through the same strict path.
	migrated := MigrateState(st, cfg, track)
	if err := restore(&migrated); err != nil {
		return "", fmt.Errorf("migrate %s: %w", statePath, err)
	}
	return ActionMigrated, nil
}
