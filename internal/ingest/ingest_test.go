package ingest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/flood"
	"repro/internal/packet"
	"repro/internal/trace"
)

var testPrefix = netip.MustParsePrefix("130.216.0.0/16")

// testTrace is ten minutes of Auckland-profile background with a
// three-minute flood overlaid, enough periods for warmup plus an alarm.
func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p := trace.Auckland()
	p.Name = "ingest-test"
	p.Span = 10 * time.Minute
	p.OutagesPerHour = 0
	bg, err := trace.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := flood.GenerateTrace(flood.Config{
		Pattern:    flood.Constant{PerSecond: 10},
		Start:      4 * time.Minute,
		Duration:   3 * time.Minute,
		Seed:       3,
		Victim:     netip.MustParseAddr("11.99.99.1"),
		VictimPort: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Merge("ingest-test", bg, fl)
	tr.Span = bg.Span
	return tr
}

func processTraceReports(t testing.TB, tr *trace.Trace) []core.Report {
	t.Helper()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := agent.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

func compareReports(t *testing.T, got, want []core.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("report %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func runPipeline(t *testing.T, src Source, span time.Duration) []core.Report {
	t.Helper()
	det, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Source: src, Detector: det, T0: 20 * time.Second, Span: span}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return det.Reports()
}

// TestPipelineMatchesProcessTrace pins the tentpole equivalence: the
// streaming pipeline produces bit-identical reports to the materialized
// ProcessTrace path, for every streaming format.
func TestPipelineMatchesProcessTrace(t *testing.T) {
	tr := testTrace(t)
	want := processTraceReports(t, tr)
	if len(want) == 0 {
		t.Fatal("no reports from reference path")
	}

	t.Run("trace source", func(t *testing.T) {
		compareReports(t, runPipeline(t, NewTraceSource(tr), 0), want)
	})

	t.Run("binary stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		s, err := trace.NewBinaryStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, runPipeline(t, &binarySource{BinaryStream: s}, 0), want)
	})

	t.Run("csv stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, tr); err != nil {
			t.Fatal(err)
		}
		compareReports(t, runPipeline(t, &csvSource{CSVStream: trace.NewCSVStream(&buf)}, 0), want)
	})

	t.Run("pcap stream", func(t *testing.T) {
		// Pcap timestamps truncate to microseconds, so the reference is
		// ProcessTrace over the decoded pcap, not the original trace.
		var buf bytes.Buffer
		if err := trace.WritePcap(&buf, tr); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		decoded, err := trace.ReadPcap(bytes.NewReader(data), "ingest-test", testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		pcapWant := processTraceReports(t, decoded)

		s, err := trace.NewPcapStream(bytes.NewReader(data), testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, runPipeline(t, &pcapSource{PcapStream: s}, 0), pcapWant)
	})

	t.Run("binary file with unknown directions", func(t *testing.T) {
		// A .trace file carries the direction byte unchecked. A record
		// of direction 0 or 3 is neither outgoing nor incoming, so no
		// period counts it, as trace.Aggregate counts it nowhere: per
		// 20 s period, 5 of the 10 SYNs and 5 of the 10 SYN/ACKs count.
		odd := &trace.Trace{Name: "odd-dirs", Span: time.Minute}
		dirs := [4]trace.Direction{0, 3, trace.DirOut, trace.DirIn}
		for i := 0; i < 40; i++ {
			r := trace.Record{
				Ts: time.Duration(i) * time.Second, Kind: packet.KindSYN, Dir: dirs[i%4],
				Src: netip.MustParseAddr("130.216.1.1"), Dst: netip.MustParseAddr("11.0.0.1"),
			}
			if i%2 == 1 {
				r.Kind = packet.KindSYNACK
			}
			odd.Records = append(odd.Records, r)
		}
		path := filepath.Join(t.TempDir(), "odd.trace")
		writeCapture(t, path, trace.WriteBinary, odd)
		src, _, err := Open(path, testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		got := runPipeline(t, src, 0)
		compareReports(t, got, processTraceReports(t, odd))
		for i, want := range []uint64{5, 5, 0} {
			if got[i].OutSYN != want || got[i].InSYNACK != want {
				t.Errorf("period %d: OutSYN %v, InSYNACK %v; want %v each", i, got[i].OutSYN, got[i].InSYNACK, want)
			}
		}
	})
}

// TestPipelineAlarms sanity-checks the end decision, not just the
// report bytes: the flooded trace must alarm, the quiet one must not.
func TestPipelineAlarms(t *testing.T) {
	det, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Source: NewTraceSource(testTrace(t)), Detector: det, T0: 20 * time.Second}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !det.Alarmed() || det.FirstAlarm() == nil {
		t.Fatal("flooded trace did not alarm")
	}

	qp := trace.Auckland()
	qp.Span = 10 * time.Minute
	qp.OutagesPerHour = 0
	quietTr, err := trace.Generate(qp, 7)
	if err != nil {
		t.Fatal(err)
	}
	quiet := NewTraceSource(quietTr)
	det2, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := &Pipeline{Source: quiet, Detector: det2, T0: 20 * time.Second}
	if err := p2.Run(); err != nil {
		t.Fatal(err)
	}
	if det2.Alarmed() {
		t.Fatal("quiet trace alarmed")
	}
}

// TestPipelineResume pins the restart guarantee on the streaming path:
// a detector restored from a mid-run snapshot, replaying the same
// source, ends with reports bit-identical to an uninterrupted run.
func TestPipelineResume(t *testing.T) {
	tr := testTrace(t)
	want := processTraceReports(t, tr)

	// First half: process the clipped trace, snapshot, restore.
	half := *tr
	half.Records = append([]trace.Record(nil), tr.Records...)
	half.ClipSpan(5 * time.Minute)
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.ProcessTrace(&half); err != nil {
		t.Fatal(err)
	}
	det, err := core.RestoreAgent(agent.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if det.Periods() == 0 || det.Periods() >= len(want) {
		t.Fatalf("resume offset %d not strictly inside run of %d", det.Periods(), len(want))
	}
	p := &Pipeline{Source: NewTraceSource(tr), Detector: det, T0: 20 * time.Second}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	compareReports(t, det.Reports(), want)
}

// TestChanSource drives the pipeline from a producer goroutine — the
// live-capture shape — and checks equivalence with the batch path,
// over rings of one slot, of three (not a power of two, so the ring
// wraps every few records) and of the sizes the repo's callers use.
func TestChanSource(t *testing.T) {
	tr := testTrace(t)
	want := processTraceReports(t, tr)

	for _, ring := range []int{1, 3, 64, 1024} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			src := NewChanSource(ring)
			defer src.Close() // releases the producer if the run fails
			go func() {
				for _, r := range tr.Records {
					src.Send(r)
				}
				src.CloseSend()
			}()
			compareReports(t, runPipeline(t, src, tr.Span), want)
		})
	}
}

// TestOpenChunkInvariance writes one trace in every container
// ingest.Open reads and drains each at chunk sizes 1, 7 and
// DefaultChunk: records and span must equal the trace that was
// written, however the stream is cut. The packet containers carry TCP
// records only, pcap and tcpdump text at microsecond resolution, and
// learn the span at EOF as lastTs+1; tcpdump text also starts its
// clock at the first record. An extension with no codec of its own
// (.ipt here) reads as binary, the codec trace.Save writes for it.
func TestOpenChunkInvariance(t *testing.T) {
	tr := testTrace(t)
	wire := func(res time.Duration) *trace.Trace {
		out := &trace.Trace{}
		for _, r := range tr.Records {
			if r.Kind != packet.KindNotTCP {
				r.Ts = r.Ts.Truncate(res)
				out.Records = append(out.Records, r)
			}
		}
		out.Span = out.Records[len(out.Records)-1].Ts + 1
		return out
	}
	pcapWire := wire(time.Microsecond)
	textWire := &trace.Trace{Records: slices.Clone(pcapWire.Records)}
	for i := range textWire.Records {
		textWire.Records[i].Ts -= pcapWire.Records[0].Ts
	}
	textWire.Span = textWire.Records[len(textWire.Records)-1].Ts + 1
	dir := t.TempDir()
	for _, c := range []struct {
		name  string
		write func(io.Writer, *trace.Trace) error
		want  *trace.Trace
	}{
		{"x.trace", trace.WriteBinary, tr},
		{"x.csv", trace.WriteCSV, tr},
		{"x.pcap", trace.WritePcap, pcapWire},
		{"x.ipt", trace.WriteBinary, tr},
		{"x.pcap.gz", trace.WritePcap, pcapWire},
		{"x.txt", trace.WriteTcpdump, textWire},
	} {
		var buf bytes.Buffer
		if strings.HasSuffix(c.name, ".gz") {
			gz := gzip.NewWriter(&buf)
			if err := c.write(gz, tr); err != nil {
				t.Fatal(err)
			}
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
		} else if err := c.write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, DefaultChunk} {
			t.Run(fmt.Sprintf("%s/chunk=%d", c.name, chunk), func(t *testing.T) {
				src, _, err := Open(path, testPrefix)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				var got []trace.Record
				buf := make([]trace.Record, chunk)
				for {
					n, err := src.NextBatch(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(got) != len(c.want.Records) {
					t.Fatalf("read %d records, wrote %d", len(got), len(c.want.Records))
				}
				for i := range got {
					if got[i] != c.want.Records[i] {
						t.Fatalf("record %d:\n got  %+v\n want %+v", i, got[i], c.want.Records[i])
					}
				}
				if span := src.(SpanSource).Span(); span != c.want.Span {
					t.Errorf("span = %v, want %v", span, c.want.Span)
				}
			})
		}
	}
}

// TestBaselineDetectors checks the wrapped detect baselines latch the
// same first alarm as detect.Run over the same series.
func TestBaselineDetectors(t *testing.T) {
	tr := testTrace(t)
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]detect.Observation, pc.Periods())
	for i := range series {
		series[i] = detect.Observation{OutSYN: pc.OutSYN[i], InSYNACK: pc.InSYNACK[i]}
	}

	for _, name := range DetectorNames()[1:] {
		t.Run(name, func(t *testing.T) {
			wrapped, err := NewDetector(name, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.ReplayCounts(wrapped, pc); err != nil {
				t.Fatal(err)
			}

			ref, err := NewDetector(name, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			refBase := ref.(*baselineDetector).det
			res := detect.Run(refBase, series)
			refBase.Reset()

			gotFirst := -1
			if al := wrapped.FirstAlarm(); al != nil {
				gotFirst = al.Period
			}
			if gotFirst != res.FirstAlarm {
				t.Errorf("first alarm = %d, detect.Run = %d", gotFirst, res.FirstAlarm)
			}
			if wrapped.Name() != name {
				t.Errorf("name = %q, want %q", wrapped.Name(), name)
			}
		})
	}
}

// TestNewDetectorBuildsAgent pins the CUSUM branch: the paper's rule
// is the agent itself, configured by cfg, with no adapter between.
func TestNewDetectorBuildsAgent(t *testing.T) {
	cfg := core.Config{T0: 10 * time.Second, Offset: 0.2, Threshold: 0.6}
	for _, name := range []string{"", "syndog-cusum"} {
		det, err := NewDetector(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := det.(*core.Agent)
		if !ok {
			t.Fatalf("NewDetector(%q) = %T, want *core.Agent", name, det)
		}
		if a.Config() != cfg.Normalized() || a.Name() != "syndog-cusum" {
			t.Errorf("NewDetector(%q): config %+v, name %q", name, a.Config(), a.Name())
		}
	}
	if _, err := NewDetector("syndog-cusum", core.Config{T0: -time.Second}); err == nil {
		t.Error("invalid agent config accepted")
	}
}

func TestNewDetectorRejectsUnknown(t *testing.T) {
	if _, err := NewDetector("nonsense", core.Config{}); err == nil {
		t.Fatal("want error for unknown detector name")
	}
}

// TestPipelineErrors covers the aggregator's streaming validation.
func TestPipelineErrors(t *testing.T) {
	det, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(20*time.Second, time.Minute, det, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.FeedBatch([]trace.Record{{Ts: 30 * time.Second}}); err != nil {
		t.Fatal(err)
	}
	if err := agg.FeedBatch([]trace.Record{{Ts: 10 * time.Second}}); err == nil {
		t.Error("want error for out-of-order record")
	}
	if err := agg.FeedBatch([]trace.Record{{Ts: 2 * time.Minute}}); err == nil {
		t.Error("want error for record outside span")
	}

	// A span-less source with no override cannot finish.
	det2, _ := core.NewAgent(core.Config{})
	agg2, err := NewAggregator(20*time.Second, 0, det2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg2.Finish(0); err == nil {
		t.Error("want error for missing span")
	}
}

// TestStreamingPcapAllocs pins the O(1)-memory claim: pushing a large
// pcap through the full pipeline must not allocate per record — the
// reader reuses its scratch buffer and the aggregator holds only the
// current period's counters.
func TestStreamingPcapAllocs(t *testing.T) {
	tr := testTrace(t)
	var buf bytes.Buffer
	if err := trace.WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	records := len(tr.Records)

	allocs := testing.AllocsPerRun(3, func() {
		s, err := trace.NewPcapStream(bytes.NewReader(data), testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.NewAgent(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := &Pipeline{Source: &pcapSource{PcapStream: s}, Detector: det, T0: 20 * time.Second}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// The fixed setup (reader, agent, report slice) costs a bounded
	// number of allocations; per-record cost must be zero. Give the
	// fixed part generous headroom and assert it does not scale.
	if maxAllocs := 200.0; allocs > maxAllocs {
		t.Errorf("pipeline allocated %.0f times for %d records (want fixed cost ≤ %.0f)",
			allocs, records, maxAllocs)
	}
	if perRecord := allocs / float64(records); perRecord > 0.01 {
		t.Errorf("allocs/record = %.4f, want ~0 (streaming path must not allocate per record)", perRecord)
	}
}

// tcpdumpFixture writes a lines-line tcpdump text file of SYNs one
// millisecond apart and returns its path.
func tcpdumpFixture(t *testing.T, lines int) string {
	t.Helper()
	tr := &trace.Trace{Records: make([]trace.Record, lines)}
	for i := range tr.Records {
		tr.Records[i] = trace.Record{
			Ts: time.Duration(i) * time.Millisecond, Kind: packet.KindSYN, Dir: trace.DirOut,
			Src: netip.MustParseAddr("130.216.1.1"), Dst: netip.MustParseAddr("11.0.0.1"),
			SrcPort: 1024, DstPort: 80,
		}
	}
	path := filepath.Join(t.TempDir(), "big.txt")
	writeCapture(t, path, trace.WriteTcpdump, tr)
	return path
}

// TestOpenTcpdumpAllocs pins that tcpdump text streams like every other
// format: opening (and closing) a 50k-line text file costs the fixed
// setup of a file, a scanner and its buffer, not an allocation per
// line — Open must not parse the file up front.
func TestOpenTcpdumpAllocs(t *testing.T) {
	const lines = 50_000
	path := tcpdumpFixture(t, lines)
	allocs := testing.AllocsPerRun(3, func() {
		src, _, err := Open(path, testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if maxAllocs := 50.0; allocs > maxAllocs {
		t.Errorf("Open of a %d-line tcpdump file allocated %.0f times (want fixed cost ≤ %.0f)",
			lines, allocs, maxAllocs)
	}
}

// TestStreamTcpdumpAllocs pins that decoding tcpdump text allocates
// nothing per line: draining a 50k-line file through Open into one
// reused chunk costs the same fixed setup as opening it.
func TestStreamTcpdumpAllocs(t *testing.T) {
	const lines = 50_000
	path := tcpdumpFixture(t, lines)
	buf := make([]trace.Record, DefaultChunk)
	allocs := testing.AllocsPerRun(3, func() {
		src, _, err := Open(path, testPrefix)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for {
			n, err := src.NextBatch(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != lines {
			t.Fatalf("decoded %d of %d lines", total, lines)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if maxAllocs := 50.0; allocs > maxAllocs {
		t.Errorf("streaming a %d-line tcpdump file allocated %.0f times (want fixed cost ≤ %.0f)",
			lines, allocs, maxAllocs)
	}
}
