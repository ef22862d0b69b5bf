package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/pcapng"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// The live equivalence suite pins the promise the live: input makes:
// replaying a capture file through the portable capture path produces
// exactly the detector state, keyed tracker state and counters that
// the offline ingest.Open pcap path produces. Two layers:
//
//   - pipeline level (TestCaptureSourceMatchesIngestOpen): both
//     sources drained to EOF through identical aggregators — every
//     observable is bit-identical, including record counts and the
//     tracker snapshot.
//   - daemon level (TestLiveAgentMatchesFileAgent): BuildAgent with
//     "live:pcap:PATH" versus the plain .pcap input. Reports and all
//     detector metrics are byte-identical; the processed-record count
//     differs only by the trailing partial period, which the bounded
//     file replay never reads and a live source by definition must.

// writeTestPcap writes tr to a temp pcap file and returns its path.
func writeTestPcap(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "equiv.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePcap(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// drainResult is everything observable about one full drain of a
// source through a fresh detector + keyed tracker.
type drainResult struct {
	reports  []core.Report
	kbar     float64
	records  int
	skipped  int
	span     time.Duration
	snapshot []byte // tracker snapshot, canonical encoding
}

// drainThrough runs src dry through a fresh CUSUM agent and a
// keyed tracker — the same chunk loop on both sides, so any
// difference comes from the source, not the consumer.
func drainThrough(t *testing.T, src ingest.Source) drainResult {
	t.Helper()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sourcetrack.New(sourcetrack.Config{Agent: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ingest.NewAggregator(core.Config{}.Normalized().T0, 0, agent, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetTap(tracker)
	buf := make([]trace.Record, ingest.DefaultChunk)
	for {
		n, err := src.NextBatch(buf)
		if ferr := agg.FeedBatch(buf[:n]); ferr != nil {
			t.Fatal(ferr)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	span := src.(ingest.SpanSource).Span()
	if err := agg.Finish(span); err != nil {
		t.Fatal(err)
	}
	snap, err := tracker.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return drainResult{
		reports:  agent.Reports(),
		kbar:     agent.KBar(),
		records:  agg.Records(),
		skipped:  agg.Skipped(),
		span:     span,
		snapshot: snap,
	}
}

// TestCaptureSourceMatchesIngestOpen: the portable capture path over a
// pcap byte-stream is bit-identical to ingest.Open on the same file —
// reports, K-bar, record counts, span and the keyed tracker snapshot.
func TestCaptureSourceMatchesIngestOpen(t *testing.T) {
	tr := testTrace(t, true)
	path := writeTestPcap(t, tr)
	prefix := netip.MustParsePrefix("130.216.0.0/16")

	fileSrc, _, err := ingest.Open(path, prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSrc.Close()
	file := drainThrough(t, fileSrc)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := capture.NewPcapReader(f, f)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	liveSrc, err := capture.NewSource(fr, capture.Config{StubPrefix: prefix, Name: "live"})
	if err != nil {
		fr.Close()
		t.Fatal(err)
	}
	defer liveSrc.Close()
	live := drainThrough(t, liveSrc)

	if !reflect.DeepEqual(file.reports, live.reports) {
		t.Errorf("reports diverge: file %d periods, live %d periods", len(file.reports), len(live.reports))
	}
	if file.kbar != live.kbar {
		t.Errorf("K-bar diverges: file %g, live %g", file.kbar, live.kbar)
	}
	if file.records != live.records || file.skipped != live.skipped {
		t.Errorf("counts diverge: file %d/%d, live %d/%d",
			file.records, file.skipped, live.records, live.skipped)
	}
	if file.span != live.span {
		t.Errorf("span diverges: file %v, live %v", file.span, live.span)
	}
	if !bytes.Equal(file.snapshot, live.snapshot) {
		t.Error("keyed tracker snapshots diverge")
	}
	if file.records != len(tr.Records) {
		t.Errorf("drained %d records, trace has %d", file.records, len(tr.Records))
	}
}

// equivMetrics are the metric lines that must be byte-identical
// between the live:pcap: agent and the plain .pcap agent. Excluded,
// with reasons: syndog_capture_* (the file path has no capture layer,
// so they read zero there by design), syndog_replay_progress (the live
// path has no period denominator), syndog_records_processed_total (the
// bounded replay stops at the last complete period boundary; a live
// source reads to EOF — see TestLiveAgentMatchesFileAgent), and the
// wall-clock histograms/ages.
var equivMetrics = []string{
	"syndog_periods_total",
	"syndog_kbar",
	"syndog_statistic",
	"syndog_alarmed",
	"syndog_replay_done",
	"syndog_replay_failed",
	"syndog_records_skipped_total",
	"syndog_records_dropped_total",
	"syndog_resume_offset_periods",
	"syndog_last_period_out_syn",
	"syndog_last_period_in_synack",
	"syndog_sources_tracking",
	"syndog_sources_tracked",
	"syndog_sources_alarmed",
	"syndog_sources_evicted_total",
	"syndog_checkpoints_total",
	"syndog_checkpoint_failures_total",
}

// pickMetrics returns the subset of body's lines whose metric name is
// in names, in names order, sample lines only.
func pickMetrics(t *testing.T, body string, names []string) string {
	t.Helper()
	var out strings.Builder
	for _, name := range names {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				out.WriteString(line)
				out.WriteByte('\n')
				found = true
			}
		}
		if !found {
			t.Fatalf("metric %s missing from exposition", name)
		}
	}
	return out.String()
}

// TestLiveAgentMatchesFileAgent: BuildAgent("live:pcap:X") and
// BuildAgent("X.pcap") converge to the same detector: byte-identical
// /reports, byte-identical detector metrics, and a processed-record
// count that differs by exactly the trailing partial period.
func TestLiveAgentMatchesFileAgent(t *testing.T) {
	tr := testTrace(t, true)
	path := writeTestPcap(t, tr)
	const prefix = "130.216.0.0/16"

	build := func(input string) *Daemon {
		d, action, err := BuildAgent(AgentSpec{Name: "agent", Input: input, Prefix: prefix}, BuildEnv{ProcName: "test", Log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if action != ActionFresh {
			t.Fatalf("action = %s, want fresh", action)
		}
		t.Cleanup(func() { d.Close() })
		if err := d.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fileD := build(path)
	liveD := build("live:pcap:" + path)

	if _, fileReports := get(t, fileD, "/reports"); true {
		_, liveReports := get(t, liveD, "/reports")
		if fileReports != liveReports {
			t.Error("/reports bodies diverge between live:pcap: and .pcap inputs")
		}
	}
	if _, fileSums := get(t, fileD, "/summaries"); true {
		_, liveSums := get(t, liveD, "/summaries")
		if fileSums != liveSums {
			t.Error("/summaries bodies diverge between live:pcap: and .pcap inputs")
		}
	}

	_, fm := get(t, fileD, "/metrics")
	_, lm := get(t, liveD, "/metrics")
	if fp, lp := pickMetrics(t, fm, equivMetrics), pickMetrics(t, lm, equivMetrics); fp != lp {
		t.Errorf("detector metrics diverge:\nfile:\n%s\nlive:\n%s", fp, lp)
	}

	// The bounded file replay stops at the last complete period
	// boundary; the live path must read to EOF. The difference is
	// exactly the records of the trailing partial period.
	span := tr.Records[len(tr.Records)-1].Ts + 1
	boundary := time.Duration(int(span/(20*time.Second))) * 20 * time.Second
	trailing := 0
	for _, r := range tr.Records {
		if r.Ts >= boundary {
			trailing++
		}
	}
	fs, ls := fileD.Status(), liveD.Status()
	if int(ls.RecordsProcessed-fs.RecordsProcessed) != trailing {
		t.Errorf("processed records: file %d, live %d, want difference %d (trailing partial period)",
			fs.RecordsProcessed, ls.RecordsProcessed, trailing)
	}

	// Every period closes through the one timed close, whatever the
	// input, so both period-latency histograms count every period the
	// run closed.
	for _, d := range []*Daemon{fileD, liveD} {
		checkClosesTimed(t, d)
	}

	// Capture-layer accounting surfaces only on the live agent.
	if fs.Capture != nil {
		t.Error("file agent reports capture stats")
	}
	switch {
	case ls.Capture == nil:
		t.Error("live agent reports no capture stats")
	case ls.Capture.Parsed != uint64(len(tr.Records)):
		t.Errorf("capture parsed %d records, trace has %d", ls.Capture.Parsed, len(tr.Records))
	case ls.Capture.RingDropped != 0:
		t.Errorf("blocking pcap source dropped %d records", ls.Capture.RingDropped)
	}
}

// checkClosesTimed asserts that d's syndog_period_processing_seconds
// histogram counts exactly the periods d closed in this run.
func checkClosesTimed(t *testing.T, d *Daemon) {
	t.Helper()
	st := d.Status()
	_, body := get(t, d, "/metrics")
	got := pickMetrics(t, body, []string{"syndog_period_processing_seconds_count"})
	if want := fmt.Sprintf("syndog_period_processing_seconds_count %d\n", st.Periods-st.ResumeOffset); got != want {
		t.Errorf("%s: %q, want %q (%d periods, resumed at %d)", st.Trace, got, want, st.Periods, st.ResumeOffset)
	}
}

// TestLiveResumeMatchesFileAgent: a live:pcap: agent resumed from a
// snapshot of k periods — none, some, or every complete period of the
// capture — finishes on the /reports bytes of one uninterrupted file
// replay, and times exactly the periods it closed itself.
func TestLiveResumeMatchesFileAgent(t *testing.T) {
	tr := testTrace(t, true)
	path := writeTestPcap(t, tr)
	const prefix = "130.216.0.0/16"
	t0 := core.DefaultObservationPeriod

	ref, _, err := BuildAgent(AgentSpec{Name: "agent", Input: path, Prefix: prefix}, BuildEnv{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	_, want := get(t, ref, "/reports")

	for _, k := range []int{1, 9, ref.TotalPeriods()} {
		// First boot: a file agent stopped after k periods. Clipping the
		// scanned span to k periods stops its replay there.
		first, err := core.NewAgent(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		src, _, err := ingest.Open(path, netip.MustParsePrefix(prefix))
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(first, src, ingest.Info{Name: path, Span: time.Duration(k) * t0, Records: -1}, t0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		src.Close()
		state := filepath.Join(t.TempDir(), "agent.json")
		if err := d.SaveState(state); err != nil {
			t.Fatal(err)
		}

		// Second boot: the same capture through the live path.
		live, action, err := BuildAgent(AgentSpec{Name: "agent", Input: "live:pcap:" + path, Prefix: prefix, State: state}, BuildEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if action != ActionResumed || live.ResumeOffset() != k {
			t.Fatalf("k=%d: action %s at offset %d", k, action, live.ResumeOffset())
		}
		if err := live.Replay(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if _, got := get(t, live, "/reports"); got != want {
			t.Errorf("k=%d: resumed live /reports differ from the file replay", k)
		}
		checkClosesTimed(t, live)
		live.Close()
	}
}

// TestLiveTimesEOFCloses: a live source that learns at EOF a span
// reaching past its last record's period closes the remaining periods
// there, through the same timed close, and reports what the file
// replay of the same trace reports.
func TestLiveTimesEOFCloses(t *testing.T) {
	tr := testTrace(t, true)
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(agent, ingest.NewTraceSource(tr), ingest.Info{Name: tr.Name, Records: -1}, agent.Config().T0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ref := newTestDaemon(t, true, Options{})
	if err := ref.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	_, got := get(t, d, "/reports")
	if _, want := get(t, ref, "/reports"); got != want {
		t.Error("live /reports differ from the file replay of the same trace")
	}
	last := tr.Records[len(tr.Records)-1].Ts
	if n, inLast := d.Status().Periods, int(last/agent.Config().T0); n <= inLast {
		t.Fatalf("%d periods closed: the last record's period %d never closed at EOF", n, inLast)
	}
	checkClosesTimed(t, d)
}

// TestLiveCancelQuietWire: cancelling a live replay whose source is
// blocked on a quiet wire closes the source, and Replay returns the
// cancellation promptly instead of waiting for traffic.
func TestLiveCancelQuietWire(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		// The reader needs the file header; after it the wire is quiet.
		if _, err := pcapng.NewWriter(pw, 0); err != nil {
			t.Error(err)
		}
	}()
	fr, err := capture.NewPcapReader(pr, pr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := capture.NewSource(fr, capture.Config{StubPrefix: netip.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(agent, src, ingest.Info{Name: "quiet", Records: -1}, agent.Config().T0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Replay(ctx, 0) }()
	time.Sleep(20 * time.Millisecond) // let the replay block on the wire
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Replay = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live replay did not stop within 2 s of cancellation")
	}
	if s := d.Status(); s.ReplayDone || s.ReplayError != "" {
		t.Errorf("cancelled live replay recorded done=%v err=%q", s.ReplayDone, s.ReplayError)
	}
}

// TestValidateLiveInputs: the spec validator catches malformed live:
// inputs before any socket or file is opened.
func TestValidateLiveInputs(t *testing.T) {
	cases := []struct {
		input, prefix, wantErr string
	}{
		{"live:eth0", "", "stub prefix"},
		{"live:pcap:feed.pcap", "", "stub prefix"},
		{"live:pcap:", "10.0.0.0/8", "needs a path"},
		{"live:", "10.0.0.0/8", "interface name"},
		{"live:eth0", "10.0.0.0/8", ""},
		{"live:pcap:feed.pcap", "10.0.0.0/8", ""},
	}
	for _, c := range cases {
		err := AgentSpec{Name: "a", Input: c.input, Prefix: c.prefix}.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s (prefix %q): unexpected error %v", c.input, c.prefix, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s (prefix %q): no error, want %q", c.input, c.prefix, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s (prefix %q): error %v, want it to mention %q", c.input, c.prefix, err, c.wantErr)
		}
	}
}

// TestBuildAgentLiveMissingFile: a live:pcap: path that does not exist
// fails at build time, not at replay time.
func TestBuildAgentLiveMissingFile(t *testing.T) {
	_, _, err := BuildAgent(AgentSpec{
		Name: "a", Input: "live:pcap:" + filepath.Join(t.TempDir(), "missing.pcap"),
		Prefix: "10.0.0.0/8",
	}, BuildEnv{ProcName: "test", Log: io.Discard})
	if err == nil {
		t.Fatal("missing pcap accepted")
	}
}
