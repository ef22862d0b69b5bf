package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testTrace builds a deterministic 10-minute Auckland trace (30
// periods at the default t0 = 20 s), optionally with a 10 SYN/s flood
// from minute 3 to 8.
func testTrace(t *testing.T, withFlood bool) *trace.Trace {
	t.Helper()
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	p.OutagesPerHour = 0
	bg, err := trace.Generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !withFlood {
		return bg
	}
	fl, err := flood.GenerateTrace(flood.Config{
		Start: 3 * time.Minute, Duration: 5 * time.Minute,
		Pattern: flood.Constant{PerSecond: 10},
		Victim:  netip.MustParseAddr("11.99.99.1"), VictimPort: 80, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Merge("mixed", bg, fl)
	mixed.Span = bg.Span
	return mixed
}

func newTestDaemon(t *testing.T, withFlood bool, opts Options) *Daemon {
	t.Helper()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceDaemon(agent, testTrace(t, withFlood), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// traceDaemon builds a daemon replaying an in-memory trace through
// agent: the fixture for every test that is not about the file door
// (BuildAgent's Scan and Open), which TestNewValidates covers.
func traceDaemon(agent *core.Agent, tr *trace.Trace, opts Options) (*Daemon, error) {
	return New(agent, ingest.NewTraceSource(tr),
		ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}, agent.Config().T0, opts)
}

// truncated returns the prefix of tr that a daemon would have seen if
// stopped at span: records with Ts < span, Span = span.
func truncated(tr *trace.Trace, span time.Duration) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Span: span}
	for _, r := range tr.Records {
		if r.Ts < span {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// get fetches path from the daemon's handler and returns the body.
func get(t *testing.T, d *Daemon, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestNewValidates drives the file door — BuildAgent's Scan, Open and
// New — over traces written with trace.Save: a file without a
// span, one shorter than a period, an unsorted one, and a snapshot
// whose history outruns the file are all refused before any replay.
func TestNewValidates(t *testing.T) {
	dir := t.TempDir()
	build := func(tr *trace.Trace, state string) error {
		t.Helper()
		path := filepath.Join(dir, tr.Name+".trace")
		if err := trace.Save(path, tr); err != nil {
			t.Fatal(err)
		}
		d, _, err := BuildAgent(AgentSpec{Name: "agent", Input: path, State: state}, BuildEnv{})
		if err == nil {
			d.Close()
		}
		return err
	}
	if err := build(&trace.Trace{Name: "empty"}, ""); err == nil {
		t.Error("no-span trace accepted")
	}
	if err := build(&trace.Trace{Name: "short", Span: time.Second}, ""); err == nil {
		t.Error("sub-period trace accepted")
	}
	host := netip.MustParseAddr("10.0.0.1")
	unsorted := &trace.Trace{Name: "unsorted", Span: time.Hour, Records: []trace.Record{
		{Ts: 2 * time.Second, Src: host, Dst: host}, {Ts: time.Second, Src: host, Dst: host},
	}}
	if err := build(unsorted, ""); !errors.Is(err, trace.ErrUnsorted) {
		t.Errorf("unsorted trace: err = %v, want ErrUnsorted", err)
	}

	// An agent whose snapshot history outruns the trace cannot have
	// come from it.
	long, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, false)
	if _, err := long.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "long.json")
	if err := WriteStateFile(State{Snapshot: long.Snapshot()}, state); err != nil {
		t.Fatal(err)
	}
	shortTr := truncated(tr, 2*time.Minute)
	shortTr.Name = "truncated"
	if err := build(shortTr, state); err == nil {
		t.Error("agent with more periods than the trace accepted")
	}
}

func TestInstantReplayStatus(t *testing.T) {
	d := newTestDaemon(t, true, Options{})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	s := d.Status()
	if !s.ReplayDone {
		t.Error("replay not marked done")
	}
	if s.Periods != 30 || s.TotalPeriods != 30 {
		t.Errorf("periods = %d/%d, want 30/30", s.Periods, s.TotalPeriods)
	}
	if !s.Alarmed {
		t.Error("flooded trace did not alarm")
	}
	if s.AlarmPeriod < 9 {
		t.Errorf("alarm period %d precedes onset period 9", s.AlarmPeriod)
	}
	if s.KBar <= 0 {
		t.Error("K-bar not populated")
	}
	if s.RecordsProcessed == 0 || s.RecordsSkipped != 0 {
		t.Errorf("records processed/skipped = %d/%d", s.RecordsProcessed, s.RecordsSkipped)
	}
	if s.LastOutSYN == 0 {
		t.Error("last-period SYN count not populated")
	}
}

func TestCleanTraceStaysQuiet(t *testing.T) {
	d := newTestDaemon(t, false, Options{})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if d.Status().Alarmed {
		t.Error("benign trace alarmed")
	}
}

func TestHealthz(t *testing.T) {
	d := newTestDaemon(t, false, Options{})
	if code, body := get(t, d, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}

	// A replay failure flips healthz to 503 and surfaces everywhere.
	d.failReplay(errors.New("boom"))
	if code, body := get(t, d, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "boom") {
		t.Errorf("failed healthz = %d %q, want 503 with the error", code, body)
	}
	if s := d.Status(); s.ReplayError != "boom" {
		t.Errorf("status.ReplayError = %q", s.ReplayError)
	}
	if _, body := get(t, d, "/metrics"); !strings.Contains(body, "syndog_replay_failed 1") {
		t.Error("metrics missing syndog_replay_failed 1")
	}
}

func TestReportsEndpoint(t *testing.T) {
	d := newTestDaemon(t, true, Options{})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, d, "/reports")
	var reports []core.Report
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 30 {
		t.Errorf("reports = %d, want 30", len(reports))
	}
	sawAlarm := false
	for _, r := range reports {
		if r.Alarmed {
			sawAlarm = true
		}
	}
	if !sawAlarm {
		t.Error("no alarmed period in reports")
	}
}

// normalizeLatency rewrites the wall-clock-dependent halves of the
// latency histogram families — per-bucket counts and the running sum —
// to a fixed placeholder. The line set, family names, bounds and the
// deterministic _count totals stay pinned; only the timing-dependent
// values are masked.
var latencyValue = regexp.MustCompile(`^(syndog_\w+_seconds(?:_bucket\{[^}]*\}|_sum)) \S+$`)

func normalizeLatency(body string) string {
	lines := strings.Split(body, "\n")
	for i, ln := range lines {
		if m := latencyValue.FindStringSubmatch(ln); m != nil {
			lines[i] = m[1] + " X"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden pins the exposition format: names, TYPE lines and
// values for a deterministic flooded replay. Histogram bucket/sum
// values are wall-clock noise and are normalized away; everything else
// — including the histograms' _count lines — is byte-pinned.
// Regenerate with -update.
func TestMetricsGolden(t *testing.T) {
	d := newTestDaemon(t, true, Options{})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, d, "/metrics")
	body = normalizeLatency(body)

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if body != string(want) {
		t.Errorf("metrics exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestResumeEquivalence is the headline invariant: snapshot at an
// arbitrary period, restart against the full trace, and the final
// /reports payload is byte-identical to a single uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod

	reportsBody := func(d *Daemon) string {
		_, body := get(t, d, "/reports")
		return body
	}

	// Uninterrupted reference run.
	ref, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d0, err := traceDaemon(ref, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d0.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want := reportsBody(d0)

	for _, k := range []int{0, 1, 9, 17, 29, 30} {
		// "First boot": the daemon ran k periods, then stopped; all it
		// saw of the trace is the prefix before the stop.
		a1, err := core.NewAgent(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			if _, err := a1.ProcessTrace(truncated(tr, time.Duration(k)*t0)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := a1.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}

		// "Second boot": resume the snapshot, replay the full trace.
		a2, err := core.ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := traceDaemon(a2, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d1.ResumeOffset() != k {
			t.Fatalf("k=%d: resume offset = %d", k, d1.ResumeOffset())
		}
		if err := d1.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}

		if got := reportsBody(d1); got != want {
			t.Errorf("k=%d: resumed /reports differ from uninterrupted run", k)
		}
		// Every record lands exactly once: skipped (pre-snapshot) plus
		// processed (this run) covers the whole trace.
		s := d1.Status()
		if s.RecordsSkipped+s.RecordsProcessed != len(tr.Records) {
			t.Errorf("k=%d: skipped %d + processed %d != %d records",
				k, s.RecordsSkipped, s.RecordsProcessed, len(tr.Records))
		}
		if !s.ReplayDone {
			t.Errorf("k=%d: resumed replay not done", k)
		}
	}

	// The same invariant must hold on the fully streaming path: a
	// daemon resumed over a pcap *stream* (never a materialized trace)
	// lands on the same /reports bytes as an uninterrupted streaming
	// run. A pcap carries no span header, so the span comes from an
	// O(1) prescan and covers only provably complete periods.
	prefix := netip.MustParsePrefix("130.216.0.0/16")
	pcapPath := filepath.Join(t.TempDir(), "resume.pcap")
	pf, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePcap(pf, tr); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := ingest.Scan(pcapPath, prefix)
	if err != nil {
		t.Fatal(err)
	}

	runStream := func(agent *core.Agent, inf ingest.Info) *Daemon {
		t.Helper()
		src, _, err := ingest.Open(pcapPath, prefix)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		d, err := New(agent, src, inf, t0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		return d
	}

	refAgent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dRef := runStream(refAgent, info)
	wantStream := reportsBody(dRef)
	streamPeriods := dRef.TotalPeriods()
	if streamPeriods < 25 {
		t.Fatalf("pcap prescan found only %d periods", streamPeriods)
	}

	for _, k := range []int{0, 1, 9, streamPeriods} {
		// First boot: the daemon ran k periods over the stream, then
		// stopped. Clipping the span to k periods makes the replay
		// close exactly k boundaries without reading past them.
		a1, err := core.NewAgent(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			clipped := info
			clipped.Span = time.Duration(k) * t0
			runStream(a1, clipped)
		}

		// Second boot: resume the snapshot over a fresh stream.
		a2, err := core.RestoreAgent(a1.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		src, _, err := ingest.Open(pcapPath, prefix)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := New(a2, src, info, t0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d1.ResumeOffset() != k {
			t.Fatalf("pcap k=%d: resume offset = %d", k, d1.ResumeOffset())
		}
		if err := d1.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if got := reportsBody(d1); got != wantStream {
			t.Errorf("pcap k=%d: resumed streaming /reports differ from uninterrupted run", k)
		}
		if !d1.Status().ReplayDone {
			t.Errorf("pcap k=%d: resumed streaming replay not done", k)
		}
	}
}

// TestPacedResumeMatchesInstant drives the timed scheduler path over a
// resumed agent and checks it lands on the identical report series.
func TestPacedResumeMatchesInstant(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod

	ref, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(ref.Reports())
	if err != nil {
		t.Fatal(err)
	}

	const k = 11
	a1, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.ProcessTrace(truncated(tr, k*t0)); err != nil {
		t.Fatal(err)
	}
	a2, err := core.RestoreAgent(a1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceDaemon(a2, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 19 remaining periods at one period per ~2 ms of wall time.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Replay(ctx, 10000); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(d.Reports())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("paced resumed replay diverged from uninterrupted run")
	}
}

// TestPacedResumeHoldsPeriod: a paced replay resumed at k periods
// drains the resume prefix at once, then holds period k — not one of
// its records is fed — until k's wall-clock deadline.
func TestPacedResumeHoldsPeriod(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod
	const k = 11
	a1, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prefix := truncated(tr, k*t0)
	if _, err := a1.ProcessTrace(prefix); err != nil {
		t.Fatal(err)
	}
	a2, err := core.RestoreAgent(a1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d, err := traceDaemon(a2, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Replay(ctx, 0.001) }() // period k is due in ~5.5 hours
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("Replay = %v, want context.Canceled", err)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); d.Status().RecordsSkipped < len(prefix.Records); {
		if time.Now().After(deadline) {
			t.Fatalf("resume drain stuck at %d of %d records", d.Status().RecordsSkipped, len(prefix.Records))
		}
		time.Sleep(time.Millisecond)
	}
	var s Status
	if _, body := get(t, d, "/status"); json.Unmarshal([]byte(body), &s) != nil {
		t.Fatalf("bad /status: %s", body)
	}
	if s.RecordsSkipped != len(prefix.Records) || s.RecordsProcessed != 0 || s.Periods != k {
		t.Errorf("before period %d's deadline: skipped %d (want %d), processed %d (want 0), periods %d",
			k, s.RecordsSkipped, len(prefix.Records), s.RecordsProcessed, s.Periods)
	}
}

func TestPacedReplayRespectsContext(t *testing.T) {
	d := newTestDaemon(t, false, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = d.Replay(ctx, 0.001) // absurdly slow: must rely on cancellation
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("replay did not stop on context cancellation")
	}
	s := d.Status()
	if s.ReplayDone {
		t.Error("cancelled replay claimed completion")
	}
	if s.ReplayError != "" {
		t.Errorf("cancellation recorded as failure: %q", s.ReplayError)
	}
}

func TestPacedReplayProgresses(t *testing.T) {
	d := newTestDaemon(t, false, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	// 20s periods at speed 4000: one period per 5ms of wall time.
	go d.Replay(ctx, 4000)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.Status().Periods >= 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("paced replay stuck at %d periods", d.Status().Periods)
}

// TestLoadOrNewAgent pins the aggregate half of LoadOrNewState, with
// source tracking off.
func TestLoadOrNewAgent(t *testing.T) {
	dir := t.TempDir()

	// No state path and missing file both mean a fresh agent.
	for _, path := range []string{"", dir + "/none.json"} {
		a, _, action, err := LoadOrNewState(path, core.Config{}, nil, PolicyError)
		if err != nil {
			t.Fatal(err)
		}
		if action == ActionResumed || len(a.Reports()) != 0 {
			t.Errorf("path %q: fresh agent action=%v reports=%d", path, action, len(a.Reports()))
		}
	}

	// Corrupt state is an error, not a silent fresh start.
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadOrNewState(bad, core.Config{}, nil, PolicyError); err == nil {
		t.Error("corrupt snapshot silently ignored")
	}

	// A real snapshot resumes with its history intact.
	src, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ProcessTrace(testTrace(t, true)); err != nil {
		t.Fatal(err)
	}
	good := dir + "/good.json"
	if err := WriteStateFile(State{Snapshot: src.Snapshot()}, good); err != nil {
		t.Fatal(err)
	}
	a, _, action, err := LoadOrNewState(good, core.Config{}, nil, PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != ActionResumed || len(a.Reports()) != 30 || !a.Alarmed() {
		t.Errorf("action=%v reports=%d alarmed=%v", action, len(a.Reports()), a.Alarmed())
	}

	// A snapshot whose config disagrees with the flags is a hard
	// error, never silently adopted.
	if _, _, _, err := LoadOrNewState(good, core.Config{T0: 30 * time.Second}, nil, PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("t0 mismatch: err = %v, want ErrConfigMismatch", err)
	}
	if _, _, _, err := LoadOrNewState(good, core.Config{Threshold: 2.5}, nil, PolicyError); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("threshold mismatch: err = %v, want ErrConfigMismatch", err)
	}
	// Equivalent-after-defaulting configs are not a mismatch.
	if _, _, _, err := LoadOrNewState(good, core.Config{T0: 20 * time.Second, Alpha: 0.9}, nil, PolicyError); err != nil {
		t.Errorf("defaulted config rejected: %v", err)
	}
}

func TestCheckpointDurableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	d := newTestDaemon(t, true, Options{StatePath: path})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := d.Status()
	if s.Checkpoints != 1 {
		t.Errorf("checkpoints = %d, want 1", s.Checkpoints)
	}
	if _, body := get(t, d, "/metrics"); !strings.Contains(body, "syndog_checkpoints_total 1") ||
		!strings.Contains(body, "syndog_checkpoint_age_seconds") {
		t.Error("metrics missing checkpoint counters")
	}

	// The file must be a complete, loadable snapshot.
	a, _, action, err := LoadOrNewState(path, core.Config{}, nil, PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != ActionResumed || len(a.Reports()) != 30 {
		t.Errorf("checkpoint reload: action=%v reports=%d", action, len(a.Reports()))
	}

	// No leftover temp files from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot dir has %d entries, want just the state file", len(entries))
	}
}

// TestServeLifecycle drives the full serve loop — a one-agent
// Supervisor.Run: banner, live endpoints, periodic checkpointing
// during a paced replay, clean shutdown on cancellation with the final
// snapshot, and a resume that completes the run with the same reports
// as an uninterrupted one.
func TestServeLifecycle(t *testing.T) {
	tr := testTrace(t, true)
	dir := t.TempDir()
	input := filepath.Join(dir, "mixed.trace")
	if err := trace.Save(input, tr); err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")

	pr, pw := io.Pipe()
	// Speed 400: one 20 s period per 50 ms; the full trace would take
	// 1.5 s, and we cancel after a few periods.
	s, err := NewSupervisor([]AgentSpec{{
		Name:       "agent",
		Input:      input,
		State:      statePath,
		Checkpoint: Duration(10 * time.Millisecond),
	}}, SupervisorOptions{Log: pw, Speed: 400})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Run(ctx, "127.0.0.1:0") }()

	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no banner: %v", sc.Err())
	}
	m := regexp.MustCompile(`http://([0-9.]+:[0-9]+)`).FindStringSubmatch(sc.Text())
	if m == nil {
		t.Fatalf("banner without address: %q", sc.Text())
	}
	go io.Copy(io.Discard, pr)
	base := "http://" + m[1]

	httpGet := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("replay never progressed past 3 periods")
		}
		var s Status
		if err := json.Unmarshal([]byte(httpGet("/status")), &s); err != nil {
			t.Fatal(err)
		}
		if s.Periods >= 3 && s.Checkpoints >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Mid-replay shutdown: Run writes the final snapshot, as
	// cmd/syndogd relies on.
	cancel()
	if err := <-serveDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	// "Reboot": resume from the final snapshot and finish the replay.
	resumedAgent, _, action, err := LoadOrNewState(statePath, core.Config{}, nil, PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != ActionResumed {
		t.Fatal("state file not resumed")
	}
	d2, err := traceDaemon(resumedAgent, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ResumeOffset() == 0 {
		t.Error("resume offset is zero after mid-replay shutdown")
	}
	if err := d2.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	ref, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.Reports())
	got, _ := json.Marshal(d2.Reports())
	if !bytes.Equal(got, want) {
		t.Error("resumed run diverged from uninterrupted run")
	}
}

// countingSource wraps a Source and counts how many chunk reads were
// made off it — the probe for the resume-drain cancellation test.
type countingSource struct {
	src   ingest.Source
	reads int
}

func (c *countingSource) NextBatch(buf []trace.Record) (int, error) {
	c.reads++
	return c.src.NextBatch(buf)
}

func (c *countingSource) Close() error { return c.src.Close() }

// TestReplayDrainRespectsContext is the regression test for the
// unkillable resume drain: a daemon resuming deep into a capture
// drains the entire skipped prefix record by record, and the pre-fix
// loop never looked at ctx — SIGTERM was ignored until the drain
// finished. A cancelled context must stop the drain after at most one
// read.
func TestReplayDrainRespectsContext(t *testing.T) {
	tr := testTrace(t, true)
	t0 := core.DefaultObservationPeriod

	// First boot: 20 of 30 periods done, then stopped.
	const k = 20
	a1, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.ProcessTrace(truncated(tr, k*t0)); err != nil {
		t.Fatal(err)
	}
	a2, err := core.RestoreAgent(a1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// Second boot resumes over the full stream — and is killed before
	// the drain of the k skipped periods can finish.
	src := &countingSource{src: ingest.NewTraceSource(tr)}
	d, err := New(a2, src,
		ingest.Info{Name: tr.Name, Span: tr.Span, Records: len(tr.Records)}, t0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.ResumeOffset() != k {
		t.Fatalf("resume offset = %d, want %d", d.ResumeOffset(), k)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Replay(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay = %v, want context.Canceled", err)
	}
	// The skipped prefix holds thousands of records; a cancelled drain
	// must not have churned through them.
	if src.reads > 1 {
		t.Errorf("cancelled drain made %d reads from the source", src.reads)
	}
	s := d.Status()
	if s.ReplayDone || s.ReplayError != "" {
		t.Errorf("cancelled drain recorded done=%v err=%q", s.ReplayDone, s.ReplayError)
	}
}

// TestCheckpointFailureObservability is the regression test for silent
// checkpoint failures: a failing checkpoint must surface in /status
// (checkpointFailures, lastCheckpointError) and /metrics
// (syndog_checkpoint_failures_total), and a later success must clear
// the error while keeping the count.
func TestCheckpointFailureObservability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "subdir", "state.json") // parent missing: writes fail
	d := newTestDaemon(t, true, Options{StatePath: path})
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint into a missing directory succeeded")
	}
	s := d.Status()
	if s.CheckpointFailures != 1 || s.Checkpoints != 0 {
		t.Errorf("failures=%d checkpoints=%d, want 1/0", s.CheckpointFailures, s.Checkpoints)
	}
	if s.LastCheckpointError == "" {
		t.Error("lastCheckpointError empty after a failed checkpoint")
	}
	if _, body := get(t, d, "/metrics"); !strings.Contains(body, "syndog_checkpoint_failures_total 1") {
		t.Error("metrics missing syndog_checkpoint_failures_total 1")
	}

	// The disk recovers: the next checkpoint succeeds, clears the error
	// and leaves the failure count as history.
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = d.Status()
	if s.CheckpointFailures != 1 || s.Checkpoints != 1 {
		t.Errorf("after recovery: failures=%d checkpoints=%d, want 1/1", s.CheckpointFailures, s.Checkpoints)
	}
	if s.LastCheckpointError != "" {
		t.Errorf("lastCheckpointError %q not cleared by success", s.LastCheckpointError)
	}
	if _, body := get(t, d, "/metrics"); !strings.Contains(body, "syndog_checkpoint_failures_total 1") {
		t.Error("failure count lost from metrics after recovery")
	}
}
