package sourcetrack

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/core"
)

// snapshotVersion guards the keyed wire format independently of the
// aggregate core.Snapshot version.
const snapshotVersion = 1

// ErrBadSnapshot reports an unusable keyed snapshot.
var ErrBadSnapshot = errors.New("sourcetrack: invalid snapshot")

// ErrConfigMismatch reports a snapshot whose keying, capacity or
// per-key detector parameters disagree with the requested
// configuration. Resuming it would graft per-key CUSUM evidence onto
// detectors with different semantics, so it is a hard error — the
// operator fixes the flags or moves the snapshot aside. The shard
// count is deliberately NOT part of the match: like experiment
// Parallelism it is an execution detail.
var ErrConfigMismatch = errors.New("sourcetrack: snapshot keying disagrees with requested config")

// KeySnapshot is one key's persisted state.
type KeySnapshot struct {
	Key netip.Prefix `json:"key"`
	// Count and Err are the Space-Saving admission counters.
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
	// KBar/KBarPrimed capture the per-key EWMA; Y, AlarmLatched,
	// Observations and OnsetIndex the per-key CUSUM detector —
	// mirroring core.Snapshot field for field.
	KBar         float64 `json:"kBar"`
	KBarPrimed   bool    `json:"kBarPrimed"`
	Y            float64 `json:"y"`
	AlarmLatched bool    `json:"alarmLatched"`
	Observations uint64  `json:"observations"`
	OnsetIndex   uint64  `json:"onsetIndex"`
	// Periods is the key's completed-period clock; Last its most
	// recent period report (keys keep no history — O(1) memory each).
	Periods int         `json:"periods"`
	Last    core.Report `json:"last"`
	Alarm   *core.Alarm `json:"alarm,omitempty"`
}

// Snapshot is the tracker's complete persistable state. Keys are
// sorted by key so the encoding is deterministic regardless of shard
// layout or map iteration order; counts inside the current partial
// period are NOT persisted, matching the aggregate snapshot's
// at-most-one-t0 loss semantics.
type Snapshot struct {
	Version    int           `json:"version"`
	KeyBits    int           `json:"keyBits"`
	MaxSources int           `json:"maxSources"`
	Agent      core.Config   `json:"agent"`
	Periods    int           `json:"periods"`
	Stats      TrackerStats  `json:"stats"`
	Keys       []KeySnapshot `json:"keys"`
}

// Snapshot captures the tracker's state.
func (t *Tracker) Snapshot() Snapshot {
	s := Snapshot{
		Version:    snapshotVersion,
		KeyBits:    t.cfg.KeyBits,
		MaxSources: t.cfg.MaxSources,
		Agent:      t.cfg.Agent,
		Periods:    t.Periods(),
		Stats:      t.Stats(),
	}
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, e := range sh.heap {
			st := &sh.slab[e.slot]
			ks := KeySnapshot{
				Key: e.k.prefix(t.cfg.KeyBits), Count: e.count, Err: st.errc,
				KBar: st.kBar.Value(), KBarPrimed: st.kBar.Primed(),
				Y: st.det.Statistic(), AlarmLatched: st.det.Alarmed(),
				Observations: st.det.Observations(), OnsetIndex: st.det.OnsetIndex(),
				Periods: st.periods, Last: st.last,
			}
			if st.alarmed {
				al := st.alarm
				ks.Alarm = &al
			}
			s.Keys = append(s.Keys, ks)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(s.Keys, func(a, b KeySnapshot) int {
		if c := a.Key.Addr().Compare(b.Key.Addr()); c != 0 {
			return c
		}
		return a.Key.Bits() - b.Key.Bits()
	})
	return s
}

// Restore rebuilds a tracker from a snapshot under cfg. cfg's
// normalized KeyBits, MaxSources and Agent must match the snapshot
// (ErrConfigMismatch otherwise); cfg.Shards may differ — keys rehash
// onto the new stripe layout and the final states are unchanged.
func Restore(s Snapshot, cfg Config) (*Tracker, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, s.Version, snapshotVersion)
	}
	cfg = cfg.Normalized()
	if s.KeyBits != cfg.KeyBits || s.MaxSources != cfg.MaxSources || s.Agent.Normalized() != cfg.Agent {
		return nil, fmt.Errorf("%w: snapshot holds /%d keys, %d max sources, agent %+v; requested /%d, %d, %+v",
			ErrConfigMismatch, s.KeyBits, s.MaxSources, s.Agent.Normalized(),
			cfg.KeyBits, cfg.MaxSources, cfg.Agent)
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if s.Periods < 0 {
		return nil, fmt.Errorf("%w: negative period count %d", ErrBadSnapshot, s.Periods)
	}
	if len(s.Keys) > s.MaxSources {
		return nil, fmt.Errorf("%w: %d keys exceed max sources %d", ErrBadSnapshot, len(s.Keys), s.MaxSources)
	}
	t.periods.Store(int64(s.Periods))
	t.unkeyed.Store(s.Stats.Unkeyed)
	// Volume counters persist as totals; they live on shard 0 and are
	// only ever reported summed.
	t.shards[0].syns = s.Stats.SYNs
	t.shards[0].synAcks = s.Stats.SYNACKs
	t.shards[0].untracked = s.Stats.UntrackedSYNACKs
	t.shards[0].evicted = s.Stats.Evicted
	for i, ks := range s.Keys {
		k, ok := t.keyOf(ks.Key.Addr())
		if !ok || k.prefix(cfg.KeyBits) != ks.Key {
			return nil, fmt.Errorf("%w: key %v is not a /%d key", ErrBadSnapshot, ks.Key, cfg.KeyBits)
		}
		if ks.Periods < 0 || ks.Periods > s.Periods {
			return nil, fmt.Errorf("%w: key %v period clock %d outside [0,%d]", ErrBadSnapshot, ks.Key, ks.Periods, s.Periods)
		}
		if ks.Err > ks.Count {
			return nil, fmt.Errorf("%w: key %v error bound %d exceeds count %d", ErrBadSnapshot, ks.Key, ks.Err, ks.Count)
		}
		// K̄ averages SYN/ACK counts; negative is structurally
		// impossible (the generic EWMA would accept it).
		if ks.KBar < 0 {
			return nil, fmt.Errorf("%w: key %v negative kBar %g", ErrBadSnapshot, ks.Key, ks.KBar)
		}
		sh := t.shards[t.shardIndex(k)]
		st := sh.fresh
		st.errc, st.periods, st.last = ks.Err, ks.Periods, ks.Last
		if err := st.kBar.Restore(ks.KBar, ks.KBarPrimed); err != nil {
			return nil, fmt.Errorf("%w: key %v kBar: %v", ErrBadSnapshot, ks.Key, err)
		}
		if err := st.det.Restore(ks.Y, ks.AlarmLatched, ks.Observations, ks.OnsetIndex); err != nil {
			return nil, fmt.Errorf("%w: key %v detector: %v", ErrBadSnapshot, ks.Key, err)
		}
		if ks.Alarm != nil {
			st.alarm, st.alarmed = *ks.Alarm, true
			sh.alarmed++
		}
		if sh.index.find(k) >= 0 {
			return nil, fmt.Errorf("%w: duplicate key %v (entry %d)", ErrBadSnapshot, ks.Key, i)
		}
		sh.insert(k, ks.Count, &st)
	}
	return t, nil
}

// MigrateSnapshot rewrites a keyed snapshot so it restores cleanly
// under cfg, carrying all portable per-key evidence. It handles the
// snapshot-compatible half of the daemon's migrate-or-reset matrix:
//
//   - Alpha / Offset / Threshold: rewritten in place. Accumulated K̄
//     and CUSUM statistics are carried unchanged — new parameters apply
//     from the next observation on. Latched alarms stay latched even if
//     the new threshold would not have fired them; an alarm is a
//     historical event, not a re-evaluated predicate.
//   - MaxSources: resized. Shrinking keeps the top keys by Space-Saving
//     count (ties broken by key so the cut is deterministic) and counts
//     the dropped states as evictions — truncation is never silent.
//
// It returns ok=false when cfg changes the keying or period semantics
// (KeyBits, T0, MinK, WarmupPeriods): per-key evidence measured under
// those cannot be reinterpreted, so the caller must reset instead.
func MigrateSnapshot(s Snapshot, cfg Config) (Snapshot, bool) {
	cfg = cfg.Normalized()
	old := s.Agent.Normalized()
	if s.KeyBits != cfg.KeyBits ||
		old.T0 != cfg.Agent.T0 ||
		old.MinK != cfg.Agent.MinK ||
		old.WarmupPeriods != cfg.Agent.WarmupPeriods {
		return Snapshot{}, false
	}
	s.Agent = cfg.Agent
	s.Keys = slices.Clone(s.Keys)
	if cfg.MaxSources < len(s.Keys) {
		drop := slices.Clone(s.Keys)
		slices.SortFunc(drop, func(a, b KeySnapshot) int {
			if a.Count != b.Count {
				if a.Count > b.Count {
					return -1
				}
				return 1
			}
			if c := a.Key.Addr().Compare(b.Key.Addr()); c != 0 {
				return c
			}
			return a.Key.Bits() - b.Key.Bits()
		})
		keep := make(map[netip.Prefix]bool, cfg.MaxSources)
		for _, ks := range drop[:cfg.MaxSources] {
			keep[ks.Key] = true
		}
		s.Stats.Evicted += uint64(len(s.Keys) - cfg.MaxSources)
		s.Keys = slices.DeleteFunc(s.Keys, func(ks KeySnapshot) bool {
			return !keep[ks.Key]
		})
	}
	s.MaxSources = cfg.MaxSources
	s.Stats.Tracked = len(s.Keys)
	alarmed := 0
	for _, ks := range s.Keys {
		if ks.Alarm != nil {
			alarmed++
		}
	}
	s.Stats.Alarmed = alarmed
	return s, true
}

// Encode serializes the snapshot as indented JSON.
func (s Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSnapshot deserializes a snapshot without restoring it —
// structural validation happens in Restore. It never panics on
// arbitrary input (the fuzz target pins this).
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s, nil
}
