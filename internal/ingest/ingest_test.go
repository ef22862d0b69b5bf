package ingest

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
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
	det, err := NewAgentDetector(core.Config{})
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

		s, err := trace.NewPcapStream(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		src := &pcapSource{s: s, prefix: testPrefix}
		compareReports(t, runPipeline(t, src, 0), pcapWant)
	})
}

// TestPipelineAlarms sanity-checks the end decision, not just the
// report bytes: the flooded trace must alarm, the quiet one must not.
func TestPipelineAlarms(t *testing.T) {
	det, err := NewAgentDetector(core.Config{})
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

	quiet, err := NewSyntheticSource(func() trace.Profile {
		p := trace.Auckland()
		p.Span = 10 * time.Minute
		p.OutagesPerHour = 0
		return p
	}(), 7)
	if err != nil {
		t.Fatal(err)
	}
	det2, err := NewAgentDetector(core.Config{})
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
	restored, err := core.RestoreAgent(agent.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	det := WrapAgent(restored)
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

// TestIPTraceSource round-trips a trace through the iptrace capture
// format: direction comes from the tx flag, not a prefix heuristic.
func TestIPTraceSource(t *testing.T) {
	tr := testTrace(t)

	var buf bytes.Buffer
	if err := trace.WriteIPTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}

	src, err := NewIPTraceSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) == 0 {
		t.Fatal("no records decoded")
	}
	// KindNotTCP records cannot be expressed as TCP segments; everything
	// else must round-trip exactly, including direction.
	i := 0
	for _, wantRec := range tr.Records {
		if wantRec.Kind == packet.KindNotTCP {
			continue
		}
		if i >= len(got) {
			t.Fatalf("decoded %d records, expected more", len(got))
		}
		if got[i] != wantRec {
			t.Fatalf("record %d:\n got  %+v\n want %+v", i, got[i], wantRec)
		}
		i++
	}
	if i != len(got) {
		t.Fatalf("decoded %d extra records", len(got)-i)
	}
}

// TestReplayCountsMatchesProcessCounts pins the counts fast path on
// the unified interface.
func TestReplayCountsMatchesProcessCounts(t *testing.T) {
	tr := testTrace(t)
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := agent.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}

	det, err := NewAgentDetector(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayCounts(det, pc); err != nil {
		t.Fatal(err)
	}
	compareReports(t, det.Reports(), want)
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
			wrapped, err := NewDetector(name, DetectorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ReplayCounts(wrapped, pc); err != nil {
				t.Fatal(err)
			}

			ref, err := NewDetector(name, DetectorConfig{})
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

func TestNewDetectorRejectsUnknown(t *testing.T) {
	if _, err := NewDetector("nonsense", DetectorConfig{}); err == nil {
		t.Fatal("want error for unknown detector name")
	}
}

// TestPipelineErrors covers the aggregator's streaming validation.
func TestPipelineErrors(t *testing.T) {
	det, err := NewAgentDetector(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(20*time.Second, time.Minute, det, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Feed(trace.Record{Ts: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := agg.Feed(trace.Record{Ts: 10 * time.Second}); err == nil {
		t.Error("want error for out-of-order record")
	}
	if err := agg.Feed(trace.Record{Ts: 2 * time.Minute}); err == nil {
		t.Error("want error for record outside span")
	}

	// A span-less source with no override cannot finish.
	det2, _ := NewAgentDetector(core.Config{})
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
		s, err := trace.NewPcapStream(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewAgentDetector(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := &Pipeline{Source: &pcapSource{s: s, prefix: testPrefix}, Detector: det, T0: 20 * time.Second}
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
