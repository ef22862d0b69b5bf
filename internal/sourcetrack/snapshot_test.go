package sourcetrack

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// busyTracker builds a small tracker with real history: more distinct
// keys than capacity (so evictions happened), one flooding key (so an
// alarm latched), and several closed periods.
func busyTracker(t *testing.T) *Tracker {
	t.Helper()
	tk, err := New(Config{
		KeyBits:    24,
		MaxSources: 4,
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	for period := 0; period < 6; period++ {
		for k := 0; k < 8; k++ {
			syns := 1 + k
			if k == 0 {
				syns = 200 // the flooder: never answered, alarms fast
			}
			for s := 0; s < syns; s++ {
				tk.Observe(trace.Record{
					Ts:   time.Duration(period) * time.Second,
					Kind: packet.KindSYN,
					Dir:  trace.DirOut,
					Src:  netip.AddrFrom4([4]byte{10, byte(k), 0, byte(1 + s%200)}),
					Dst:  netip.MustParseAddr("11.9.9.9"),
				})
			}
			if k > 0 { // answered keys keep their balance
				for s := 0; s < syns; s++ {
					tk.Observe(trace.Record{
						Ts:   time.Duration(period) * time.Second,
						Kind: packet.KindSYNACK,
						Dir:  trace.DirIn,
						Src:  netip.MustParseAddr("11.9.9.9"),
						Dst:  netip.AddrFrom4([4]byte{10, byte(k), 0, 1}),
					})
				}
			}
		}
		// A SYN/ACK for a key no SYN ever admitted lands in the
		// untracked ledger.
		tk.Observe(trace.Record{
			Ts:   time.Duration(period) * time.Second,
			Kind: packet.KindSYNACK,
			Dir:  trace.DirIn,
			Src:  netip.MustParseAddr("11.9.9.9"),
			Dst:  netip.MustParseAddr("10.99.0.1"),
		})
		tk.ClosePeriod(period, time.Duration(period+1)*time.Second)
	}
	st := tk.Stats()
	if st.Evicted == 0 || st.Alarmed == 0 || st.UntrackedSYNACKs == 0 {
		t.Fatalf("busy tracker not busy enough: %+v", st)
	}
	return tk
}

func TestSnapshotRoundTrip(t *testing.T) {
	tk := busyTracker(t)
	snap := tk.Snapshot()

	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, decoded) {
		t.Fatalf("encode/decode changed the snapshot")
	}

	// Restoring under the same config reproduces the state exactly,
	// including the stats ledger.
	restored, err := Restore(decoded, tk.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot(); !reflect.DeepEqual(snap, got) {
		t.Fatal("restored snapshot differs")
	}
}

// TestSnapshotResumeEquivalence pins restart transparency at the
// tracker level: half-run, snapshot, restore, finish — byte-identical
// to one uninterrupted run.
func TestSnapshotResumeEquivalence(t *testing.T) {
	p := trace.LBL()
	tr := mixedTrace(t, p, 23, netip.MustParsePrefix("240.7.0.0/24"), 25)
	cfg := Config{KeyBits: 24, MaxSources: 512, Agent: core.Config{T0: 20 * time.Second}}

	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}

	half := *tr
	half.Span = tr.Span / 2
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.ProcessTrace(&half); err != nil {
		t.Fatal(err)
	}
	data, err := first.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}

	wantBytes, err := full.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := resumed.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(wantBytes) != string(gotBytes) {
		t.Fatalf("resumed run is not byte-identical to the uninterrupted run")
	}
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	tk := busyTracker(t)
	snap := tk.Snapshot()
	base := tk.Config()

	mutations := map[string]func(*Config){
		"key bits":    func(c *Config) { c.KeyBits = 16 },
		"max sources": func(c *Config) { c.MaxSources = 8 },
		"offset":      func(c *Config) { c.Agent.Offset = 0.5 },
		"period":      func(c *Config) { c.Agent.T0 = 2 * time.Second },
		"min k":       func(c *Config) { c.Agent.MinK = 3 },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Restore(snap, cfg); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s change: got %v, want ErrConfigMismatch", name, err)
		}
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	tk := busyTracker(t)
	base := tk.Snapshot()
	cfg := tk.Config()

	corrupt := map[string]func(*Snapshot){
		"version": func(s *Snapshot) { s.Version = 99 },
		"unmasked key": func(s *Snapshot) {
			s.Keys[0].Key = netip.MustParsePrefix("10.0.0.7/24")
		},
		"wrong-width key": func(s *Snapshot) {
			s.Keys[0].Key = netip.MustParsePrefix("10.0.0.0/16")
		},
		"period clock ahead": func(s *Snapshot) { s.Keys[0].Periods = s.Periods + 1 },
		"negative periods":   func(s *Snapshot) { s.Periods = -1 },
		"error above count": func(s *Snapshot) {
			s.Keys[0].Err = s.Keys[0].Count + 1
		},
		"duplicate key": func(s *Snapshot) { s.Keys[1] = s.Keys[0] },
		"over capacity": func(s *Snapshot) {
			for len(s.Keys) <= s.MaxSources {
				k := s.Keys[len(s.Keys)-1]
				k.Key = netip.MustParsePrefix("172.16.0.0/24")
				s.Keys = append(s.Keys, k)
			}
		},
		"bad kbar": func(s *Snapshot) { s.Keys[0].KBar = -1 },
		"bad y":    func(s *Snapshot) { s.Keys[0].Y = -1 },
	}
	for name, mutate := range corrupt {
		data, err := base.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		if _, err := Restore(s, cfg); err == nil {
			t.Errorf("%s: Restore accepted a corrupt snapshot", name)
		}
	}
}

// FuzzKeyedSnapshotRoundTrip pins three properties over arbitrary
// bytes: DecodeSnapshot never panics, anything it accepts re-encodes
// to an identical snapshot (encode∘decode identity), and Restore
// never panics on a decoded snapshot (it may reject it).
func FuzzKeyedSnapshotRoundTrip(f *testing.F) {
	tk, err := New(Config{KeyBits: 24, MaxSources: 4, Agent: core.Config{T0: time.Second}})
	if err != nil {
		f.Fatal(err)
	}
	tk.Observe(trace.Record{
		Kind: packet.KindSYN, Dir: trace.DirOut,
		Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("11.9.9.9"),
	})
	tk.ClosePeriod(0, time.Second)
	valid, err := tk.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"keys":[{"key":"10.0.0.0/24"}]}`))
	f.Add([]byte(`{"version":1,"periods":-3}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			return // NaN/Inf floats are unencodable; decode-only is fine
		}
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("encode/decode not an identity:\n%+v\n%+v", s, again)
		}
		// Restore must reject, never panic.
		_, _ = Restore(s, Config{KeyBits: s.KeyBits, MaxSources: s.MaxSources, Agent: s.Agent})
	})
}

// TestMigrateSnapshotParams pins the snapshot-compatible half of the
// migrate matrix: detector parameters (alpha, a, N) rewrite in place
// with every per-key statistic carried, and the result restores
// cleanly under the new config.
func TestMigrateSnapshotParams(t *testing.T) {
	tk := busyTracker(t)
	snap := tk.Snapshot()

	next := tk.Config()
	next.Agent.Alpha = 0.8
	next.Agent.Offset = 0.5
	next.Agent.Threshold = 2.5

	mig, ok := MigrateSnapshot(snap, next)
	if !ok {
		t.Fatal("param-only change refused migration")
	}
	if mig.Agent != next.Normalized().Agent {
		t.Fatalf("migrated agent config %+v, want %+v", mig.Agent, next.Normalized().Agent)
	}
	if len(mig.Keys) != len(snap.Keys) {
		t.Fatalf("migration changed key count: %d -> %d", len(snap.Keys), len(mig.Keys))
	}
	for i, ks := range mig.Keys {
		want := snap.Keys[i]
		want.Key = ks.Key // same order pinned below
		if ks.Key != snap.Keys[i].Key {
			t.Fatalf("key order changed at %d: %v vs %v", i, ks.Key, snap.Keys[i].Key)
		}
		if ks.Y != snap.Keys[i].Y || ks.KBar != snap.Keys[i].KBar ||
			ks.Count != snap.Keys[i].Count || ks.Periods != snap.Keys[i].Periods ||
			ks.AlarmLatched != snap.Keys[i].AlarmLatched {
			t.Fatalf("key %v evidence not carried: %+v vs %+v", ks.Key, ks, snap.Keys[i])
		}
	}
	if mig.Stats.Evicted != snap.Stats.Evicted {
		t.Fatalf("param migration counted evictions: %d -> %d", snap.Stats.Evicted, mig.Stats.Evicted)
	}

	restored, err := Restore(mig, next)
	if err != nil {
		t.Fatalf("restore migrated snapshot: %v", err)
	}
	// The migrated tracker keeps detecting: another period closes and
	// the clock advances over the carried population.
	restored.ClosePeriod(restored.Periods(), time.Duration(restored.Periods()+1)*time.Second)
	if restored.Periods() != snap.Periods+1 {
		t.Fatalf("migrated tracker period clock %d, want %d", restored.Periods(), snap.Periods+1)
	}
	// The original snapshot still hard-errors under the new config —
	// migration is the only path around ErrConfigMismatch.
	if _, err := Restore(snap, next); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("unmigrated restore under new config: %v", err)
	}
}

// TestMigrateSnapshotResize pins MaxSources migration: shrinking keeps
// the top keys by Space-Saving count and books the rest as evictions;
// growing keeps everything.
func TestMigrateSnapshotResize(t *testing.T) {
	tk := busyTracker(t)
	snap := tk.Snapshot()
	if len(snap.Keys) != 4 {
		t.Fatalf("fixture drifted: %d keys", len(snap.Keys))
	}

	shrink := tk.Config()
	shrink.MaxSources = 2
	mig, ok := MigrateSnapshot(snap, shrink)
	if !ok {
		t.Fatal("capacity change refused migration")
	}
	if len(mig.Keys) != 2 || mig.MaxSources != 2 {
		t.Fatalf("shrink kept %d keys under max %d", len(mig.Keys), mig.MaxSources)
	}
	if mig.Stats.Evicted != snap.Stats.Evicted+2 {
		t.Fatalf("shrink evictions %d, want %d", mig.Stats.Evicted, snap.Stats.Evicted+2)
	}
	if mig.Stats.Tracked != 2 {
		t.Fatalf("shrink tracked %d, want 2", mig.Stats.Tracked)
	}
	// The survivors are the top keys by count.
	minKept := mig.Keys[0].Count
	for _, ks := range mig.Keys[1:] {
		if ks.Count < minKept {
			minKept = ks.Count
		}
	}
	kept := make(map[netip.Prefix]bool, len(mig.Keys))
	for _, ks := range mig.Keys {
		kept[ks.Key] = true
	}
	for _, ks := range snap.Keys {
		if !kept[ks.Key] && ks.Count > minKept {
			t.Fatalf("dropped key %v (count %d) outranks a kept key (count %d)", ks.Key, ks.Count, minKept)
		}
	}
	if _, err := Restore(mig, shrink); err != nil {
		t.Fatalf("restore shrunk snapshot: %v", err)
	}

	grow := tk.Config()
	grow.MaxSources = 64
	mig, ok = MigrateSnapshot(snap, grow)
	if !ok {
		t.Fatal("capacity growth refused migration")
	}
	if len(mig.Keys) != len(snap.Keys) || mig.Stats.Evicted != snap.Stats.Evicted {
		t.Fatalf("growth dropped keys: %d keys, evicted %d", len(mig.Keys), mig.Stats.Evicted)
	}
	if _, err := Restore(mig, grow); err != nil {
		t.Fatalf("restore grown snapshot: %v", err)
	}
}

// TestMigrateSnapshotRefusesSemanticChanges pins the incompatible half
// of the matrix: keying and period-semantics changes cannot migrate.
func TestMigrateSnapshotRefusesSemanticChanges(t *testing.T) {
	tk := busyTracker(t)
	snap := tk.Snapshot()
	base := tk.Config()

	mutations := map[string]func(*Config){
		"keyBits": func(c *Config) { c.KeyBits = 16 },
		"t0":      func(c *Config) { c.Agent.T0 = 2 * time.Second },
		"minK":    func(c *Config) { c.Agent.MinK = 20 },
		"warmup":  func(c *Config) { c.Agent.WarmupPeriods = 3 },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, ok := MigrateSnapshot(snap, cfg); ok {
			t.Errorf("%s change migrated; per-key evidence is not portable across it", name)
		}
	}
	// The identity migration is a no-op round trip.
	mig, ok := MigrateSnapshot(snap, base)
	if !ok {
		t.Fatal("identity migration refused")
	}
	if !reflect.DeepEqual(mig, snap) {
		t.Fatal("identity migration changed the snapshot")
	}
}
