package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(20 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"20s"` {
		t.Fatalf("marshal = %s, want \"20s\"", b)
	}
	for _, in := range []string{`"30s"`, `30000000000`} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		if time.Duration(d) != 30*time.Second {
			t.Fatalf("unmarshal %s = %v, want 30s", in, time.Duration(d))
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Fatal("bool accepted as duration")
	}
}

// TestAgentSpecValidate pins the validation matrix — including the
// exact error substrings the single-agent CLI has always used, which
// cmd/syndogd's tests grep for.
func TestAgentSpecValidate(t *testing.T) {
	valid := AgentSpec{Name: "edge", Input: "edge.trace"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*AgentSpec)
		want string // required error substring
	}{
		{"empty name", func(s *AgentSpec) { s.Name = "" }, "name"},
		{"bad name", func(s *AgentSpec) { s.Name = "a/b" }, "name"},
		{"missing input", func(s *AgentSpec) { s.Input = "" }, "input"},
		{"unknown detector", func(s *AgentSpec) { s.Detector = "psychic" }, "unknown detector"},
		{"checkpoint without state", func(s *AgentSpec) { s.Checkpoint = Duration(5 * time.Second) }, "-state"},
		{"state with baseline", func(s *AgentSpec) { s.State = "x.json"; s.Detector = "static-threshold" }, "syndog-cusum"},
		{"tracking with baseline", func(s *AgentSpec) { s.TrackSources = true; s.Detector = "adaptive-ewma" }, "syndog-cusum"},
		{"key bits without tracking", func(s *AgentSpec) { s.KeyBits = 16 }, "-track-sources"},
		{"max sources without tracking", func(s *AgentSpec) { s.MaxSources = 32 }, "-track-sources"},
		{"bad prefix", func(s *AgentSpec) { s.Prefix = "not-a-prefix" }, "prefix"},
		{"pcap without prefix", func(s *AgentSpec) { s.Input = "cap.pcap" }, "stub prefix"},
		{"bad policy", func(s *AgentSpec) { s.OnMismatch = "panic" }, "on-mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("%+v validated", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs([]byte(`{"agents": [
		{"name": "a", "input": "a.trace", "t0": "30s", "checkpoint": "5s", "state": "a.json"},
		{"name": "b", "input": "b.trace", "trackSources": true, "keyBits": 16, "onMismatch": "migrate"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].Name != "b" {
		t.Fatalf("specs = %+v", specs)
	}
	if time.Duration(specs[0].T0) != 30*time.Second {
		t.Fatalf("t0 = %v, want 30s", time.Duration(specs[0].T0))
	}
	if specs[1].OnMismatch != PolicyMigrate {
		t.Fatalf("onMismatch = %q", specs[1].OnMismatch)
	}

	bad := []struct{ name, doc, want string }{
		{"no agents", `{"agents": []}`, "no agents"},
		{"duplicate names", `{"agents": [{"name":"a","input":"a.trace"},{"name":"a","input":"b.trace"}]}`, "duplicate"},
		{"unknown field", `{"agents": [{"name":"a","input":"a.trace","speling":1}]}`, "speling"},
		{"invalid agent", `{"agents": [{"name":"a","input":"a.trace","checkpoint":"5s"}]}`, "-state"},
		{"garbage", `nope`, "config"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpecs([]byte(tc.doc))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSpecEffective pins the reload diffing relation: defaulted and
// explicit forms of the same configuration are effective-equal, and
// the mismatch policy never participates.
func TestSpecEffective(t *testing.T) {
	a := AgentSpec{Name: "x", Input: "x.trace"}
	b := AgentSpec{
		Name: "x", Input: "x.trace", Detector: "syndog-cusum",
		T0: Duration(20 * time.Second), Alpha: 0.9, Offset: 0.35, Threshold: 1.05,
		OnMismatch: PolicyMigrate,
	}
	if a.effective() != b.effective() {
		t.Fatalf("defaulted %+v != explicit %+v", a.effective(), b.effective())
	}
	c := b
	c.Threshold = 2
	if a.effective() == c.effective() {
		t.Fatal("threshold change not visible in effective form")
	}
	tr := AgentSpec{Name: "x", Input: "x.trace", TrackSources: true}
	tr2 := tr
	tr2.KeyBits, tr2.MaxSources = sourcetrack.DefaultKeyBits, sourcetrack.DefaultMaxSources
	if tr.effective() != tr2.effective() {
		t.Fatal("tracking defaults not normalized")
	}
	if tr.effective() == a.effective() {
		t.Fatal("tracking toggle not visible in effective form")
	}
}

// keyedRunState replays the flood trace through a keyed daemon and
// returns its final persistable state — the input to migration tests.
func keyedRunState(t *testing.T) State {
	t.Helper()
	agent, tracker, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceDaemon(agent, testTrace(t, true), Options{Tracker: tracker})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	st, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMigrateStateCompatible(t *testing.T) {
	st := keyedRunState(t)
	if len(st.Reports) != 30 || st.Sources == nil {
		t.Fatalf("unexpected baseline state: %d reports, sources=%v", len(st.Reports), st.Sources != nil)
	}
	newCfg := core.Config{Threshold: 3, Offset: 0.5, Alpha: 0.7}
	track := keyedTrackConfig()
	track.MaxSources = 8 // shrink: keyed half must migrate, not reset
	track.Agent = newCfg

	got := MigrateState(st, newCfg, track)
	want := newCfg.Normalized()
	if got.Config != want {
		t.Fatalf("config = %+v, want %+v", got.Config, want)
	}
	if got.KBar != st.KBar || got.Y != st.Y || len(got.Reports) != len(st.Reports) {
		t.Fatal("compatible migration did not carry aggregate state")
	}
	if got.Sources == nil {
		t.Fatal("compatible migration reset the keyed half")
	}
	if got.Sources.Periods != len(got.Reports) {
		t.Fatalf("keyed clock %d != aggregate %d", got.Sources.Periods, len(got.Reports))
	}
	if len(got.Sources.Keys) > 8 {
		t.Fatalf("%d keys survive a shrink to 8", len(got.Sources.Keys))
	}
	// The rewritten state must restore through the strict loader.
	a, err := core.RestoreAgent(got.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if a.Config() != want {
		t.Fatalf("restored config %+v", a.Config())
	}
	if _, err := sourcetrack.Restore(*got.Sources, *track); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateStateT0Change(t *testing.T) {
	st := keyedRunState(t)
	newCfg := core.Config{T0: 40 * time.Second}
	track := keyedTrackConfig()
	track.Agent = newCfg

	got := MigrateState(st, newCfg, track)
	if got.Config != newCfg.Normalized() {
		t.Fatalf("config = %+v", got.Config)
	}
	if want := st.KBar * 2; got.KBar != want {
		t.Fatalf("kBar = %g, want %g (rate-scaled for 20s -> 40s)", got.KBar, want)
	}
	if !got.KBarPrimed {
		t.Fatal("primed baseline lost")
	}
	if got.Y != 0 || got.AlarmLatched || got.Observations != 0 || got.OnsetIndex != 0 {
		t.Fatal("CUSUM evidence survived a period-semantics change")
	}
	if got.Reports != nil || got.Alarm != nil {
		t.Fatal("history survived a period-semantics change")
	}
	if got.Sources != nil {
		t.Fatal("keyed state survived a T0 change")
	}
	if _, err := core.RestoreAgent(got.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Disabling tracking drops only the keyed half.
	dropped := MigrateState(st, core.Config{}, nil)
	if dropped.Sources != nil {
		t.Fatal("keyed state survived disabling tracking")
	}
	if len(dropped.Reports) != len(st.Reports) {
		t.Fatal("aggregate state lost while dropping the keyed half")
	}
}

func TestLoadOrNewStateWithPolicy(t *testing.T) {
	st := keyedRunState(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteStateFile(st, path); err != nil {
		t.Fatal(err)
	}
	track := keyedTrackConfig()

	// Matching config: plain resume under every policy.
	for _, p := range []Policy{PolicyError, PolicyMigrate, PolicyReset} {
		a, tr, act, err := LoadOrNewState(path, core.Config{}, track, p)
		if err != nil || act != ActionResumed || tr == nil {
			t.Fatalf("policy %s: action %s err %v", p, act, err)
		}
		if len(a.Reports()) != 30 {
			t.Fatalf("policy %s: %d reports", p, len(a.Reports()))
		}
	}

	// Compatible-parameter mismatch: error by default, carried under
	// migrate.
	hot := core.Config{Threshold: 9}
	hotTrack := keyedTrackConfig()
	hotTrack.Agent = hot
	if _, _, _, err := LoadOrNewState(path, hot, hotTrack, PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("policy error: %v", err)
	}
	a, tr, act, err := LoadOrNewState(path, hot, hotTrack, PolicyMigrate)
	if err != nil || act != ActionMigrated {
		t.Fatalf("migrate: action %s err %v", act, err)
	}
	if len(a.Reports()) != 30 || a.KBar() != st.KBar {
		t.Fatal("migrate dropped aggregate evidence")
	}
	if a.Config().Threshold != 9 {
		t.Fatalf("threshold = %g", a.Config().Threshold)
	}
	if tr == nil || tr.Periods() != 30 {
		t.Fatal("migrate dropped keyed evidence")
	}

	// T0 mismatch: migrate carries the scaled baseline and restarts the
	// history; reset starts over entirely.
	slow := core.Config{T0: 40 * time.Second}
	slowTrack := keyedTrackConfig()
	slowTrack.Agent = slow
	a, tr, act, err = LoadOrNewState(path, slow, slowTrack, PolicyMigrate)
	if err != nil || act != ActionMigrated {
		t.Fatalf("migrate t0: action %s err %v", act, err)
	}
	if len(a.Reports()) != 0 || a.KBar() != st.KBar*2 {
		t.Fatalf("migrate t0: %d reports, kBar %g (want 0, %g)", len(a.Reports()), a.KBar(), st.KBar*2)
	}
	if tr == nil || tr.Periods() != 0 {
		t.Fatal("migrate t0: keyed half not restarted")
	}
	a, tr, act, err = LoadOrNewState(path, slow, slowTrack, PolicyReset)
	if err != nil || act != ActionReset {
		t.Fatalf("reset: action %s err %v", act, err)
	}
	if len(a.Reports()) != 0 || a.KBar() != 0 || tr == nil || tr.Periods() != 0 {
		t.Fatal("reset did not start fresh")
	}

	// Keyed file without tracking: hard error by default, keyed half
	// dropped (aggregate kept) under migrate.
	if _, _, _, err := LoadOrNewState(path, core.Config{}, nil, PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("keyed without track: %v", err)
	}
	a, tr, act, err = LoadOrNewState(path, core.Config{}, nil, PolicyMigrate)
	if err != nil || act != ActionMigrated || tr != nil {
		t.Fatalf("keyed without track migrate: action %s tracker %v err %v", act, tr, err)
	}
	if len(a.Reports()) != 30 {
		t.Fatal("aggregate evidence lost while dropping the keyed half")
	}

	// Corrupt snapshots stay fatal under every policy.
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyError, PolicyMigrate, PolicyReset} {
		if _, _, _, err := LoadOrNewState(torn, core.Config{}, track, p); !errors.Is(err, core.ErrBadSnapshot) {
			t.Fatalf("policy %s accepted a corrupt snapshot: %v", p, err)
		}
	}
}

// saveTestTrace writes the standard test trace to disk so BuildAgent
// and supervisor tests can exercise the real file-opening path.
func saveTestTrace(t *testing.T, dir string, withFlood bool) string {
	t.Helper()
	path := filepath.Join(dir, "mixed.trace")
	if err := trace.Save(path, testTrace(t, withFlood)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildAgent(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	spec := AgentSpec{
		Name: "edge", Input: in,
		State:        filepath.Join(dir, "edge.json"),
		TrackSources: true, KeyBits: 8, MaxSources: 64,
	}

	var log bytes.Buffer
	d, act, err := BuildAgent(spec, BuildEnv{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if act != ActionFresh {
		t.Fatalf("action = %s", act)
	}
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveState(spec.State); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	log.Reset()
	d2, act, err := BuildAgent(spec, BuildEnv{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if act != ActionResumed {
		t.Fatalf("action = %s", act)
	}
	if d2.ResumeOffset() != 30 {
		t.Fatalf("resume offset = %d", d2.ResumeOffset())
	}
	if out := log.String(); !strings.Contains(out, "resumed from") || !strings.Contains(out, "keyed state") {
		t.Fatalf("resume notices missing from log: %q", out)
	}

	// Parameter change: refused by default, carried under migrate.
	hot := spec
	hot.Threshold = 9
	if _, _, err := BuildAgent(hot, BuildEnv{ProcName: "syndogd", Log: &log}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("default policy: %v", err)
	}
	hot.OnMismatch = PolicyMigrate
	log.Reset()
	d3, act, err := BuildAgent(hot, BuildEnv{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if act != ActionMigrated || d3.ResumeOffset() != 30 {
		t.Fatalf("migrate: action %s offset %d", act, d3.ResumeOffset())
	}
	if !strings.Contains(log.String(), "migrated") {
		t.Fatalf("migration notice missing: %q", log.String())
	}

	// Invalid specs and missing inputs fail cleanly.
	if _, _, err := BuildAgent(AgentSpec{Name: "x"}, BuildEnv{ProcName: "syndogd"}); err == nil {
		t.Fatal("invalid spec built")
	}
	if _, _, err := BuildAgent(AgentSpec{Name: "x", Input: filepath.Join(dir, "no.trace")}, BuildEnv{ProcName: "syndogd"}); err == nil {
		t.Fatal("missing input built")
	}
}

// TestFileAgentStreams: a .trace agent replays in memory bounded by
// its chunks, not its capture. BuildAgent's Scan and the speed-0 replay
// over a 200k-record file must allocate a small fraction of the 72
// bytes per record that materializing the capture alone would take.
func TestFileAgentStreams(t *testing.T) {
	const records = 200_000
	in := filepath.Join(t.TempDir(), "big.trace")
	func() {
		tr := &trace.Trace{Name: "big", Span: 10 * time.Minute, Records: make([]trace.Record, records)}
		host, peer := netip.MustParseAddr("152.2.0.1"), netip.MustParseAddr("11.0.0.1")
		for i := range tr.Records {
			r := trace.Record{Ts: time.Duration(i) * (tr.Span / records), Kind: packet.KindSYN,
				Dir: trace.DirOut, Src: host, Dst: peer, SrcPort: uint16(i), DstPort: 80}
			if i%2 == 1 {
				r.Kind, r.Dir, r.Src, r.Dst = packet.KindSYNACK, trace.DirIn, peer, host
			}
			tr.Records[i] = r
		}
		if err := trace.Save(in, tr); err != nil {
			t.Fatal(err)
		}
	}()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, _, err := BuildAgent(AgentSpec{Name: "big", Input: in}, BuildEnv{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if got := d.Status().RecordsProcessed; got != records {
		t.Fatalf("replayed %d records, want %d", got, records)
	}
	const bound = records * 72 / 16
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("build + replay allocated %d bytes, want at most %d (the capture is %d bytes in memory)",
			alloc, bound, records*72)
	}
}
