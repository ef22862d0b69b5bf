package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// keyedTrackConfig keys the flood-bearing test trace at /8: the
// spoofed 240.0.0.0/4 sources concentrate onto 16 keys (detectable
// per-key rates), while Auckland's 130.216/16 clients collapse onto
// one balanced key.
func keyedTrackConfig() *sourcetrack.Config {
	return &sourcetrack.Config{KeyBits: 8, MaxSources: 64}
}

// TestKeyedResumeEquivalence extends the headline resume invariant to
// the keyed half: stop a tracking daemon at an arbitrary period,
// resume from its state file, finish the trace — and the final state
// file and /sources payload are byte-identical to an uninterrupted
// tracking run.
func TestKeyedResumeEquivalence(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod
	dir := t.TempDir()

	run := func(statePath string, full bool, k int) (stateBytes, sources string) {
		t.Helper()
		agent, tracker, _, err := LoadOrNewState(statePath, core.Config{}, keyedTrackConfig(), PolicyError)
		if err != nil {
			t.Fatal(err)
		}
		replay := tr
		if !full {
			replay = truncated(tr, time.Duration(k)*t0)
		}
		d, err := traceDaemon(agent, replay, Options{Tracker: tracker})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveState(statePath); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		_, body := get(t, d, "/sources")
		return string(b), body
	}

	refPath := filepath.Join(dir, "ref.json")
	wantState, wantSources := run(refPath, true, 0)
	if !strings.Contains(wantSources, `"alarmed":true`) {
		t.Fatalf("reference run attributed no source:\n%s", wantSources)
	}

	for _, k := range []int{1, 9, 17, 30} {
		path := filepath.Join(dir, "resume.json")
		run(path, false, k) // first boot: k periods, then stop
		gotState, gotSources := run(path, true, 0)
		if gotState != wantState {
			t.Errorf("k=%d: resumed state file differs from uninterrupted run", k)
		}
		if gotSources != wantSources {
			t.Errorf("k=%d: resumed /sources differs from uninterrupted run", k)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadOrNewState(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t, true)

	// Empty path and missing file: fresh agent, fresh tracker.
	for _, path := range []string{"", filepath.Join(dir, "none.json")} {
		agent, tracker, action, err := LoadOrNewState(path, core.Config{}, keyedTrackConfig(), PolicyError)
		if err != nil {
			t.Fatal(err)
		}
		if action == ActionResumed || len(agent.Reports()) != 0 || tracker == nil || tracker.Periods() != 0 {
			t.Errorf("path %q: fresh state action=%v tracker=%v", path, action, tracker)
		}
	}
	// Tracking disabled: no tracker comes back.
	if _, tracker, _, err := LoadOrNewState("", core.Config{}, nil, PolicyError); err != nil || tracker != nil {
		t.Errorf("track=nil built tracker %v (err %v)", tracker, err)
	}

	// An aggregate-only snapshot resumes with keyed tracking enabled:
	// the tracker fast-forwards to the agent's period clock.
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}
	aggPath := filepath.Join(dir, "agg.json")
	if err := WriteStateFile(State{Snapshot: agent.Snapshot()}, aggPath); err != nil {
		t.Fatal(err)
	}
	a2, tracker, action, err := LoadOrNewState(aggPath, core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != ActionResumed || tracker == nil || tracker.Periods() != len(a2.Reports()) {
		t.Fatalf("aggregate-only resume: action=%v tracker periods=%d agent periods=%d",
			action, tracker.Periods(), len(a2.Reports()))
	}

	// Build a keyed state file via a tracking daemon.
	agent3, tracker3, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceDaemon(agent3, tr, Options{Tracker: tracker3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	keyedPath := filepath.Join(dir, "keyed.json")
	if err := d.SaveState(keyedPath); err != nil {
		t.Fatal(err)
	}

	// Resuming a keyed file without tracking would silently drop the
	// per-key evidence — hard error.
	if _, _, _, err := LoadOrNewState(keyedPath, core.Config{}, nil, PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("keyed file without -track-sources: err = %v, want ErrConfigMismatch", err)
	}
	// Changed keying is the keyed config mismatch.
	if _, _, _, err := LoadOrNewState(keyedPath, core.Config{}, &sourcetrack.Config{KeyBits: 16, MaxSources: 64}, PolicyError); !errors.Is(err, sourcetrack.ErrConfigMismatch) {
		t.Errorf("key-bits change: err = %v, want sourcetrack.ErrConfigMismatch", err)
	}
	if _, _, _, err := LoadOrNewState(keyedPath, core.Config{}, &sourcetrack.Config{KeyBits: 8, MaxSources: 32}, PolicyError); !errors.Is(err, sourcetrack.ErrConfigMismatch) {
		t.Errorf("max-sources change: err = %v, want sourcetrack.ErrConfigMismatch", err)
	}
	// The aggregate mismatch check still fires first.
	if _, _, _, err := LoadOrNewState(keyedPath, core.Config{T0: 30 * time.Second}, keyedTrackConfig(), PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("t0 change: err = %v, want ErrConfigMismatch", err)
	}
	// Matching config resumes both halves, aligned.
	a4, tracker4, action, err := LoadOrNewState(keyedPath, core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != ActionResumed || tracker4 == nil || tracker4.Periods() != len(a4.Reports()) {
		t.Fatalf("keyed resume: action=%v, periods %d vs %d", action, tracker4.Periods(), len(a4.Reports()))
	}
	if tracker4.Stats().Alarmed == 0 {
		t.Error("keyed resume lost the per-source alarms")
	}

	// Mismatched halves (keyed clock != aggregate clock) are corrupt.
	st, err := ReadStateFile(keyedPath)
	if err != nil {
		t.Fatal(err)
	}
	st.Sources.Periods--
	for i := range st.Sources.Keys {
		if st.Sources.Keys[i].Periods > st.Sources.Periods {
			st.Sources.Keys[i].Periods = st.Sources.Periods
		}
	}
	tornPath := filepath.Join(dir, "torn.json")
	if err := WriteStateFile(st, tornPath); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadOrNewState(tornPath, core.Config{}, keyedTrackConfig(), PolicyError); !errors.Is(err, core.ErrBadSnapshot) {
		t.Errorf("mismatched halves: err = %v, want core.ErrBadSnapshot", err)
	}
}

// TestStateFileCompatibility pins the on-disk contract: a state file
// without keyed sources is byte-identical to the pre-keyed aggregate
// snapshot format, and a keyed state file still loads through the
// aggregate-only reader (which ignores the keyed half).
func TestStateFileCompatibility(t *testing.T) {
	dir := t.TempDir()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.ProcessTrace(testTrace(t, true)); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "agg.json")
	if err := WriteStateFile(State{Snapshot: agent.Snapshot()}, path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := agent.WriteSnapshot(&legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.String() != string(onDisk) {
		t.Error("aggregate-only state file drifted from the core.Snapshot format")
	}

	// A keyed state file is still readable as a plain agent snapshot.
	tracker, err := sourcetrack.New(sourcetrack.Config{KeyBits: 8, MaxSources: 64, Agent: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	ks := tracker.Snapshot()
	keyedPath := filepath.Join(dir, "keyed.json")
	if err := WriteStateFile(State{Snapshot: agent.Snapshot(), Sources: &ks}, keyedPath); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(keyedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a2, err := core.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("aggregate reader rejected keyed state file: %v", err)
	}
	if len(a2.Reports()) != len(agent.Reports()) {
		t.Errorf("aggregate half lost reports: %d vs %d", len(a2.Reports()), len(agent.Reports()))
	}
}

// TestSourcesEndpoint drives /sources and the keyed /status and
// /metrics fields over a flooded replay.
func TestSourcesEndpoint(t *testing.T) {
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

	p := d.Sources(-1, 0)
	if !p.Enabled || p.KeyBits != 8 || p.MaxSources != 64 {
		t.Fatalf("payload header: %+v", p)
	}
	if p.Total != len(p.Sources) || p.Offset != 0 {
		t.Fatalf("unpaged payload total=%d offset=%d over %d rows", p.Total, p.Offset, len(p.Sources))
	}
	if p.Stats.Alarmed == 0 || len(p.Sources) == 0 {
		t.Fatalf("flooded replay attributed nothing: %+v", p.Stats)
	}
	top := p.Sources[0]
	if !top.Alarmed || top.Key.Addr().As4()[0] < 240 {
		t.Errorf("top source %+v is not an alarmed spoofed block", top)
	}
	for i := 1; i < len(p.Sources); i++ {
		if p.Sources[i-1].Alarmed == p.Sources[i].Alarmed &&
			p.Sources[i-1].Alarmed == false &&
			p.Sources[i-1].Y < p.Sources[i].Y {
			t.Errorf("sources not ranked: %d before %d", i-1, i)
		}
	}

	if status, body := get(t, d, "/sources?n=1"); status != 200 || strings.Count(body, `"key"`) != 1 {
		t.Errorf("?n=1: status %d body %s", status, body)
	}
	if status, _ := get(t, d, "/sources?n=bogus"); status != 400 {
		t.Errorf("bad n: status %d, want 400", status)
	}

	s := d.Status()
	if !s.Tracking || s.SourcesTracked == 0 || s.SourcesAlarmed == 0 {
		t.Errorf("status keyed fields: %+v", s)
	}
	if _, body := get(t, d, "/metrics"); !strings.Contains(body, "syndog_sources_tracking 1") ||
		!strings.Contains(body, "syndog_sources_alarmed") {
		t.Error("metrics missing keyed gauges")
	}

	// Without a tracker the endpoint reports disabled, not 404 — the
	// handler set is independent of configuration.
	d2 := newTestDaemon(t, false, Options{})
	if status, body := get(t, d2, "/sources"); status != 200 || !strings.Contains(body, `"enabled":false`) {
		t.Errorf("untracked /sources: status %d body %s", status, body)
	}
	if s := d2.Status(); s.Tracking || s.SourcesTracked != 0 {
		t.Errorf("untracked status keyed fields: %+v", s)
	}
}

// TestNewRejectsMisalignedTracker pins the startup guard: a
// tracker whose period clock disagrees with the detector's resume
// offset means the two snapshot halves came from different runs.
func TestNewRejectsMisalignedTracker(t *testing.T) {
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sourcetrack.New(*keyedTrackConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.FastForward(3); err != nil {
		t.Fatal(err)
	}
	if _, err := traceDaemon(agent, testTrace(t, false), Options{Tracker: tracker}); err == nil {
		t.Error("misaligned tracker accepted")
	}
}

// TestSourcesPagination pins the /sources paging contract: ?n= is the
// page size with n=0 meaning "no rows" (never "all"), ?offset= walks
// the ranking, negatives clamp, and concatenating pages reproduces the
// full ranked list with a stable total.
func TestSourcesPagination(t *testing.T) {
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

	all := d.Sources(-1, 0)
	if all.Total < 3 {
		t.Fatalf("fixture too small to page: %d keys", all.Total)
	}

	// Pages concatenate back to the full ranking, each carrying the
	// same total.
	var paged []string
	for off := 0; off < all.Total; off += 2 {
		p := d.Sources(2, off)
		if p.Total != all.Total || p.Offset != off {
			t.Fatalf("page at %d: total=%d offset=%d, want %d/%d", off, p.Total, p.Offset, all.Total, off)
		}
		for _, row := range p.Sources {
			paged = append(paged, row.Key.String())
		}
	}
	if len(paged) != all.Total {
		t.Fatalf("pages yielded %d rows, want %d", len(paged), all.Total)
	}
	for i, row := range all.Sources {
		if paged[i] != row.Key.String() {
			t.Fatalf("row %d: paged %s, full list %s", i, paged[i], row.Key)
		}
	}

	// n=0: headers and stats only — explicitly not "all keys".
	p := d.Sources(0, 0)
	if len(p.Sources) != 0 || p.Total != all.Total {
		t.Errorf("n=0 returned %d rows (total %d)", len(p.Sources), p.Total)
	}
	// Offset past the population: empty page, not an error.
	if p := d.Sources(5, all.Total+10); len(p.Sources) != 0 || p.Total != all.Total {
		t.Errorf("overshot offset returned %d rows", len(p.Sources))
	}
	// Negative inputs clamp.
	if p := d.Sources(3, -7); p.Offset != 0 || len(p.Sources) != 3 {
		t.Errorf("negative offset: offset=%d rows=%d", p.Offset, len(p.Sources))
	}

	// The HTTP surface: n=0 serializes an empty array (not null), bad
	// offsets are 400, negatives clamp to 0.
	if status, body := get(t, d, "/sources?n=0"); status != 200 || !strings.Contains(body, `"sources":[]`) {
		t.Errorf("?n=0: status %d body %s", status, body)
	}
	if status, _ := get(t, d, "/sources?offset=bogus"); status != 400 {
		t.Errorf("bad offset: status %d, want 400", status)
	}
	if status, body := get(t, d, "/sources?n=-3&offset=-3"); status != 200 || !strings.Contains(body, `"sources":[]`) || !strings.Contains(body, `"offset":0`) {
		t.Errorf("negative query params: status %d body %s", status, body)
	}
	if status, body := get(t, d, "/sources?n=2&offset=1"); status != 200 || strings.Count(body, `"key"`) != 2 {
		t.Errorf("?n=2&offset=1: status %d body %s", status, body)
	}
}

// haltingSource serves recs in chunks and, on reaching recs[halt],
// closes halted and blocks until release is closed — a bounded source
// stalled in the middle of a period.
type haltingSource struct {
	recs    []trace.Record
	pos     int
	halt    int
	halted  chan struct{}
	release chan struct{}
}

func (s *haltingSource) NextBatch(buf []trace.Record) (int, error) {
	if s.pos == s.halt && s.halted != nil {
		close(s.halted)
		s.halted = nil
		<-s.release
	}
	end := len(s.recs)
	if s.pos < s.halt {
		end = s.halt
	}
	n := copy(buf, s.recs[s.pos:end])
	s.pos += n
	if s.pos == len(s.recs) {
		return n, io.EOF
	}
	return n, nil
}

func (s *haltingSource) Close() error { return nil }

// TestCheckpointWaitsForPeriodBoundary: a snapshot taken while the
// bounded replay has fed part of a period must not carry that period's
// keyed counts, or a restart from it feeds those records a second
// time. The source stalls halfway through period 12. State, called
// meanwhile, waits for the period to close while /status keeps
// answering, and the snapshot it returns equals an uninterrupted run
// stopped at the same period.
func TestCheckpointWaitsForPeriodBoundary(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod
	src := &haltingSource{
		recs: tr.Records,
		halt: sort.Search(len(tr.Records), func(i int) bool {
			return tr.Records[i].Ts >= 12*t0+t0/2
		}),
		halted:  make(chan struct{}),
		release: make(chan struct{}),
	}
	halted := src.halted
	agent, tracker, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(agent, src,
		ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}, t0, Options{Tracker: tracker})
	if err != nil {
		t.Fatal(err)
	}
	replayDone := make(chan error, 1)
	go func() { replayDone <- d.Replay(context.Background(), 0) }()
	<-halted

	snap := make(chan State, 1)
	go func() {
		st, err := d.State()
		if err != nil {
			t.Error(err)
		}
		snap <- st
	}()
	if code, _ := get(t, d, "/status"); code != http.StatusOK {
		t.Errorf("/status = %d while the source is blocked", code)
	}
	close(src.release)
	if err := <-replayDone; err != nil {
		t.Fatal(err)
	}
	got := <-snap

	k := len(got.Reports)
	refAgent, refTracker, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := traceDaemon(refAgent, truncated(tr, time.Duration(k)*t0), Options{Tracker: refTracker})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := got.Write(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Errorf("snapshot at %d periods holds %d keyed SYNs, an uninterrupted run stopped there %d",
			k, got.Sources.Stats.SYNs, want.Sources.Stats.SYNs)
	}
}

// chunkCap serves at most n records per NextBatch.
type chunkCap struct {
	ingest.Source
	n int
}

func (c chunkCap) NextBatch(buf []trace.Record) (int, error) {
	return c.Source.NextBatch(buf[:min(len(buf), c.n)])
}

// TestCancelCompletesFedPeriod: cancellation never abandons a period
// the replay has begun to feed. The source stalls halfway through
// period 12 and serves eight records per read, so the rest of the
// period takes many reads; the replay is cancelled during the stall.
// It must still feed and close period 12, return context.Canceled,
// and hold the state of an uninterrupted run stopped at 13 periods.
func TestCancelCompletesFedPeriod(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod
	halting := &haltingSource{
		recs: tr.Records,
		halt: sort.Search(len(tr.Records), func(i int) bool {
			return tr.Records[i].Ts >= 12*t0+t0/2
		}),
		halted:  make(chan struct{}),
		release: make(chan struct{}),
	}
	halted := halting.halted
	agent, tracker, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(agent, chunkCap{halting, 8},
		ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}, t0, Options{Tracker: tracker})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	replayDone := make(chan error, 1)
	go func() { replayDone <- d.Replay(ctx, 0) }()
	<-halted
	cancel()
	close(halting.release)
	if err := <-replayDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay = %v, want context.Canceled", err)
	}
	got, err := d.State()
	if err != nil {
		t.Fatal(err)
	}

	refAgent, refTracker, _, err := LoadOrNewState("", core.Config{}, keyedTrackConfig(), PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := traceDaemon(refAgent, truncated(tr, 13*t0), Options{Tracker: refTracker})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := got.Write(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Errorf("cancelled replay holds %d periods and %d keyed SYNs; an uninterrupted run stopped at 13 periods, %d and %d",
			len(got.Reports), got.Sources.Stats.SYNs, len(want.Reports), want.Sources.Stats.SYNs)
	}
}
