package core

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

var (
	victimAddr = netip.MustParseAddr("10.9.0.1")
	clientAddr = netip.MustParseAddr("11.0.0.1")
)

// buildVictimTrace synthesizes a 10-minute victim-side trace: balanced
// inbound SYNs / outbound FINs at 2/s for 5 minutes, then an inbound
// SYN flood at 6/s with no closes.
func buildVictimTrace() *trace.Trace {
	tr := &trace.Trace{Name: "victim", Span: 10 * time.Minute}
	add := func(ts time.Duration, kind packet.Kind, dir trace.Direction) {
		src, dst := clientAddr, victimAddr
		if dir == trace.DirOut {
			src, dst = victimAddr, clientAddr
		}
		tr.Records = append(tr.Records, trace.Record{
			Ts: ts, Kind: kind, Dir: dir, Src: src, Dst: dst, SrcPort: 9, DstPort: 80,
		})
	}
	for s := 0; s < 600; s++ {
		ts := time.Duration(s) * time.Second
		for k := 0; k < 2; k++ {
			off := time.Duration(k) * 400 * time.Millisecond
			add(ts+off, packet.KindSYN, trace.DirIn)
			add(ts+off+100*time.Millisecond, packet.KindFIN, trace.DirOut)
		}
		if s >= 300 { // flood onset at 5 minutes
			for k := 0; k < 6; k++ {
				add(ts+time.Duration(k)*150*time.Millisecond, packet.KindSYN, trace.DirIn)
			}
		}
	}
	tr.Sort()
	return tr
}

func shortTrace() *trace.Trace {
	return &trace.Trace{Name: "short", Span: time.Second}
}

// burst is n records of one kind crossing the victim router in dir.
type burst struct {
	dir  trace.Direction
	kind packet.Kind
	n    int
}

// openClose is one period of n opens (inbound SYNs) and m closes
// (outbound FINs).
func openClose(opens, closes int) []burst {
	return []burst{{trace.DirIn, packet.KindSYN, opens}, {trace.DirOut, packet.KindFIN, closes}}
}

// feedVictimPeriods lays out one 20 s period per entry, spreading each
// burst evenly through its period, bins the trace with
// trace.AggregateLastMile and folds it through the agent. It returns
// the last period's report.
func feedVictimPeriods(t *testing.T, l *LastMileAgent, periods [][]burst) Report {
	t.Helper()
	const t0 = 20 * time.Second
	tr := &trace.Trace{Name: "victim-periods", Span: time.Duration(len(periods)) * t0}
	for i, bursts := range periods {
		for _, b := range bursts {
			src, dst := clientAddr, victimAddr
			if b.dir == trace.DirOut {
				src, dst = victimAddr, clientAddr
			}
			for j := 0; j < b.n; j++ {
				tr.Records = append(tr.Records, trace.Record{
					Ts:   time.Duration(i)*t0 + time.Duration(j)*(t0/time.Duration(b.n)),
					Kind: b.kind, Dir: b.dir, Src: src, Dst: dst, SrcPort: 9, DstPort: 80,
				})
			}
		}
	}
	tr.Sort()
	pc, err := tr.AggregateLastMile(t0)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := l.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}
	return reports[len(reports)-1]
}

func TestLastMileNormalOperationQuiet(t *testing.T) {
	l, err := NewLastMileAgent(Config{})
	if err != nil {
		t.Fatal(err)
	}
	periods := make([][]burst, 40)
	for i := range periods {
		periods[i] = openClose(105, 100) // opens slightly lead closes
	}
	feedVictimPeriods(t, l, periods)
	if l.Alarmed() {
		t.Fatal("false alarm on balanced open/close traffic")
	}
	if l.KBar() < 99 || l.KBar() > 101 {
		t.Errorf("K̄ = %v, want ≈100", l.KBar())
	}
}

func TestLastMileDetectsAggregateFlood(t *testing.T) {
	l, _ := NewLastMileAgent(Config{})
	periods := make([][]burst, 15)
	for i := range periods {
		periods[i] = openClose(100, 100)
		if i >= 10 {
			// Aggregate DDoS: +200 inbound SYNs per period never close.
			periods[i] = openClose(300, 100)
		}
	}
	feedVictimPeriods(t, l, periods)
	if !l.Alarmed() {
		t.Fatal("aggregate flood not detected at the last mile")
	}
	al := l.FirstAlarm()
	if al.Period < 10 {
		t.Errorf("alarm period %d precedes the flood", al.Period)
	}
}

func TestLastMileCountsRSTsAsCloses(t *testing.T) {
	// Reset-heavy benign traffic (e.g. crawlers aborting) must not
	// accumulate: RSTs close connections too.
	l, _ := NewLastMileAgent(Config{})
	periods := make([][]burst, 30)
	for i := range periods {
		periods[i] = append(openClose(100, 60), burst{trace.DirOut, packet.KindRST, 40})
	}
	feedVictimPeriods(t, l, periods)
	if l.Alarmed() {
		t.Error("RST-closing traffic false-alarmed")
	}
}

func TestLastMileIgnoresIrrelevantKinds(t *testing.T) {
	l, _ := NewLastMileAgent(Config{})
	// Outbound SYNs (victim's own clients) and inbound FINs must not
	// feed the detector's counters.
	r := feedVictimPeriods(t, l, [][]burst{{
		{trace.DirOut, packet.KindSYN, 500},
		{trace.DirIn, packet.KindFIN, 500},
		{trace.DirIn, packet.KindSYNACK, 500},
	}})
	if r.OutSYN != 0 || r.InSYNACK != 0 {
		t.Errorf("irrelevant kinds counted: %+v", r)
	}
}

func TestLastMileProcessTrace(t *testing.T) {
	// A victim-side trace: inbound SYNs at 2/s, outbound FINs at 2/s
	// for 5 minutes, then a flood of inbound SYNs with no FINs.
	tr := buildVictimTrace()
	l, _ := NewLastMileAgent(Config{})
	reports, err := l.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 30 {
		t.Fatalf("periods = %d, want 30", len(reports))
	}
	if !l.Alarmed() {
		t.Fatal("trace-driven last-mile detection failed")
	}
	if al := l.FirstAlarm(); al.Period < 15 {
		t.Errorf("alarm period %d precedes flood onset period 15", al.Period)
	}
}

func TestLastMileProcessTraceValidation(t *testing.T) {
	l, _ := NewLastMileAgent(Config{})
	if _, err := l.ProcessTrace(shortTrace()); err == nil {
		t.Error("too-short trace accepted")
	}
}

func TestFlippedFloodFeedsLastMile(t *testing.T) {
	// A source-side flood trace flipped into the victim view must
	// register as inbound SYN openings.
	src := &trace.Trace{Name: "flood", Span: time.Minute}
	for i := 0; i < 300; i++ {
		src.Records = append(src.Records, trace.Record{
			Ts: time.Duration(i) * 200 * time.Millisecond, Kind: packet.KindSYN,
			Dir: trace.DirOut, Src: clientAddr, Dst: victimAddr, DstPort: 80,
		})
	}
	flipped := src.Flip()
	l, _ := NewLastMileAgent(Config{})
	reports, err := l.ProcessTrace(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].OutSYN == 0 {
		t.Error("flipped flood not counted as openings")
	}
	if !l.Alarmed() {
		t.Error("unanswered flood did not alarm the last mile")
	}
}

// TestLastMileResumeSkipsReportedPeriods mirrors the first-mile resume
// contract: a last-mile agent with k periods of history replays only
// the remainder of the trace.
func TestLastMileResumeSkipsReportedPeriods(t *testing.T) {
	tr := buildVictimTrace()
	ref, _ := NewLastMileAgent(Config{})
	want, err := ref.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	const k = 12
	l1, _ := NewLastMileAgent(Config{})
	if _, err := l1.ProcessTrace(truncateTrace(tr, k*20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := len(l1.Reports()); got != k {
		t.Fatalf("partial run = %d periods, want %d", got, k)
	}
	got, err := l1.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed run = %d periods, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
