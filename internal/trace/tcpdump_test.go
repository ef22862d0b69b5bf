package trace

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

var tcpdumpStub = netip.MustParsePrefix("10.1.0.0/16")

const tcpdumpSample = `12:00:00.000000 IP 10.1.2.3.40000 > 11.0.0.1.80: Flags [S], seq 100, win 65535, length 0
12:00:00.120000 IP 11.0.0.1.80 > 10.1.2.3.40000: Flags [S.], seq 200, ack 101, win 65535, length 0
12:00:00.240000 IP 10.1.2.3.40000 > 11.0.0.1.80: Flags [.], ack 201, win 65535, length 0
12:00:05.000000 IP 10.1.2.3.40000 > 11.0.0.1.80: Flags [F.], seq 101, ack 201, length 0
12:00:05.120000 IP 11.0.0.1.80 > 10.1.2.3.40000: Flags [R], seq 201, length 0
12:00:06.000000 ARP, Request who-has 10.1.0.1 tell 10.1.2.3, length 28
12:00:07.000000 IP 10.1.2.3.53 > 11.0.0.2.53: UDP, length 60
`

func TestReadTcpdumpBasic(t *testing.T) {
	tr, err := ReadTcpdump(strings.NewReader(tcpdumpSample), "dump", tcpdumpStub)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "dump" {
		t.Errorf("name = %q", tr.Name)
	}
	if len(tr.Records) != 5 {
		t.Fatalf("records = %d, want 5 (ARP and UDP skipped)", len(tr.Records))
	}
	wantKinds := []packet.Kind{
		packet.KindSYN, packet.KindSYNACK, packet.KindOther,
		packet.KindFIN, packet.KindRST,
	}
	wantDirs := []Direction{DirOut, DirIn, DirOut, DirOut, DirIn}
	for i, r := range tr.Records {
		if r.Kind != wantKinds[i] {
			t.Errorf("record %d kind = %v, want %v", i, r.Kind, wantKinds[i])
		}
		if r.Dir != wantDirs[i] {
			t.Errorf("record %d dir = %v, want %v", i, r.Dir, wantDirs[i])
		}
	}
	// Relative timestamps from the first packet.
	if tr.Records[0].Ts != 0 {
		t.Errorf("first ts = %v, want 0", tr.Records[0].Ts)
	}
	if tr.Records[1].Ts != 120*time.Millisecond {
		t.Errorf("second ts = %v, want 120ms", tr.Records[1].Ts)
	}
	if tr.Records[3].Ts != 5*time.Second {
		t.Errorf("fin ts = %v, want 5s", tr.Records[3].Ts)
	}
	// Addresses and ports.
	r0 := tr.Records[0]
	if r0.Src != netip.MustParseAddr("10.1.2.3") || r0.SrcPort != 40000 ||
		r0.Dst != netip.MustParseAddr("11.0.0.1") || r0.DstPort != 80 {
		t.Errorf("record 0 addressing wrong: %+v", r0)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// fourSYNs stamps four SYNs exactly 20 s apart at a microsecond
// fraction (.000052) that float seconds cannot hold exactly.
const fourSYNs = `10:00:12.000052 IP 10.1.0.1.40000 > 11.0.0.1.80: Flags [S], seq 1, win 65535, length 0
10:00:32.000052 IP 10.1.0.1.40001 > 11.0.0.1.80: Flags [S], seq 1, win 65535, length 0
10:00:52.000052 IP 10.1.0.1.40002 > 11.0.0.1.80: Flags [S], seq 1, win 65535, length 0
10:01:12.000052 IP 10.1.0.1.40003 > 11.0.0.1.80: Flags [S], seq 1, win 65535, length 0
`

// TestReadTcpdumpExactTimestamps pins integer time parsing: each SYN
// lands exactly 20 s after the last, so with t0 = 20 s each period
// holds one. Parsed through float seconds, the second SYN sat 1 ns
// under 20 s and the periods held 2, 0 and 1.
func TestReadTcpdumpExactTimestamps(t *testing.T) {
	tr, err := ReadTcpdump(strings.NewReader(fourSYNs), "four", tcpdumpStub)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		if want := time.Duration(i) * 20 * time.Second; r.Ts != want {
			t.Errorf("record %d at %v, want %v", i, r.Ts, want)
		}
	}
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pc.OutSYN, []float64{1, 1, 1}) {
		t.Errorf("out-SYNs per period = %v, want [1 1 1]", pc.OutSYN)
	}
}

// TestParseTimeOfDay pins the accepted clock forms: the fraction's
// digits are nanoseconds (past the ninth they are dropped), seconds
// may read 60 for a leap second, and anything but digits is refused.
func TestParseTimeOfDay(t *testing.T) {
	good := map[string]time.Duration{
		"00:00:00":              0,
		"10:00:12.000052":       10*time.Hour + 12*time.Second + 52*time.Microsecond,
		"23:59:60.5":            23*time.Hour + 59*time.Minute + 60*time.Second + 500*time.Millisecond,
		"01:02:03.123456789123": time.Hour + 2*time.Minute + 3*time.Second + 123456789,
		"1:2:3.":                time.Hour + 2*time.Minute + 3*time.Second,
	}
	for in, want := range good {
		got, err := parseTimeOfDay([]byte(in))
		if err != nil || got != want {
			t.Errorf("parseTimeOfDay(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "12:00", "12:00:00:00", "24:00:00", "12:60:00", "12:00:61",
		"+1:00:00", "12:00:1e1", "12:00:.5", "12:00:00.5x", "12:00:NaN",
	} {
		if got, err := parseTimeOfDay([]byte(in)); err == nil {
			t.Errorf("parseTimeOfDay(%q) = %v, want an error", in, got)
		}
	}
}

func TestReadTcpdumpMidnightRollover(t *testing.T) {
	in := `23:59:59.500000 IP 10.1.0.1.1000 > 11.0.0.1.80: Flags [S], length 0
00:00:00.500000 IP 10.1.0.1.1001 > 11.0.0.1.80: Flags [S], length 0
`
	tr, err := ReadTcpdump(strings.NewReader(in), "wrap", tcpdumpStub)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatal("rollover lost a record")
	}
	gap := tr.Records[1].Ts - tr.Records[0].Ts
	if gap != time.Second {
		t.Errorf("gap across midnight = %v, want 1s", gap)
	}
}

func TestReadTcpdumpErrors(t *testing.T) {
	cases := []string{
		"25:00:00.0 IP 10.1.0.1.1 > 11.0.0.1.80: Flags [S], length 0",  // bad hour
		"12:61:00.0 IP 10.1.0.1.1 > 11.0.0.1.80: Flags [S], length 0",  // bad minute
		"12:00:00.0 IP 10.1.0.1 > 11.0.0.1.80: Flags [S], length 0",    // missing src port
		"12:00:00.0 IP zzz.1 > 11.0.0.1.80: Flags [S], length 0",       // bad address
		"12:00:00.0 IP 10.1.0.1.xx > 11.0.0.1.80: Flags [S], length 0", // bad port
		"12:00:00.0 IP 10.1.0.1.1 > 11.0.0.1.80: Flags [Z], length 0",  // unknown flag
	}
	for _, in := range cases {
		if _, err := ReadTcpdump(strings.NewReader(in), "x", tcpdumpStub); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReadTcpdumpSkipsNoise(t *testing.T) {
	in := `garbage line
12:00:00.0 IP6 fe80::1.1 > fe80::2.2: Flags [S], length 0

continuation: 0x0000 4500 003c
`
	tr, err := ReadTcpdump(strings.NewReader(in), "noise", tcpdumpStub)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 0 {
		t.Errorf("noise produced %d records", len(tr.Records))
	}
}

func TestParseTcpdumpFlagVariants(t *testing.T) {
	cases := map[string]packet.Kind{
		"[S],":   packet.KindSYN,
		"[S.],":  packet.KindSYNACK,
		"[.],":   packet.KindOther,
		"[P.],":  packet.KindOther,
		"[F.],":  packet.KindFIN,
		"[R.],":  packet.KindRST,
		"[SEW],": packet.KindSYN, // ECN-setup SYN
	}
	for in, want := range cases {
		got, err := parseTcpdumpFlags([]byte(in))
		if err != nil {
			t.Errorf("parse %q: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("flags %q = %v, want %v", in, got, want)
		}
	}
}

func TestTcpdumpFeedsDetectorEndToEnd(t *testing.T) {
	// Build a 2-minute tcpdump log: balanced handshakes, then a flood
	// of unanswered SYNs; the detector must alarm.
	var sb strings.Builder
	second := 0
	emit := func(line string) { sb.WriteString(line + "\n") }
	for ; second < 60; second++ {
		ts := formatTOD(second)
		emit(ts + " IP 10.1.0.5.40000 > 11.0.0.1.80: Flags [S], length 0")
		emit(ts + " IP 11.0.0.1.80 > 10.1.0.5.40000: Flags [S.], length 0")
	}
	for ; second < 120; second++ {
		ts := formatTOD(second)
		for k := 0; k < 10; k++ {
			emit(ts + " IP 240.0.0.9.1234 > 11.0.0.1.80: Flags [S], length 0")
		}
	}
	tr, err := ReadTcpdump(strings.NewReader(sb.String()), "e2e", tcpdumpStub)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Periods() < 5 {
		t.Fatalf("periods = %d", pc.Periods())
	}
	// Flood periods must show the SYN excess.
	if pc.OutSYN[4] <= pc.InSYNACK[4]+50 {
		t.Errorf("flood period not visible: %v vs %v", pc.OutSYN[4], pc.InSYNACK[4])
	}
}

func formatTOD(second int) string {
	h := second / 3600
	m := second / 60 % 60
	s := second % 60
	return padTwo(h) + ":" + padTwo(m) + ":" + padTwo(s) + ".000000"
}

func padTwo(v int) string {
	if v < 10 {
		return "0" + string(rune('0'+v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// TestWriteTcpdumpRoundTrip pins the writer against the reader: a
// generated trace rendered to tcpdump text and re-imported yields the
// same records (timestamps truncated to the format's microsecond
// resolution, directions re-inferred from the stub prefix).
func TestWriteTcpdumpRoundTrip(t *testing.T) {
	p := Auckland()
	p.Span = 2 * time.Minute
	tr, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteTcpdump(&buf, tr); err != nil {
		t.Fatal(err)
	}
	stub := netip.MustParsePrefix("130.216.0.0/16")
	got, err := ReadTcpdump(strings.NewReader(buf.String()), tr.Name, stub)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip kept %d of %d records", len(got.Records), len(tr.Records))
	}
	// The reader starts its clock at the first accepted packet, so the
	// round trip shifts every timestamp by the first record's (
	// microsecond-truncated) Ts.
	base := tr.Records[0].Ts.Truncate(time.Microsecond)
	for i, want := range tr.Records {
		g := got.Records[i]
		if g.Kind != want.Kind || g.Src != want.Src || g.Dst != want.Dst ||
			g.SrcPort != want.SrcPort || g.DstPort != want.DstPort || g.Dir != want.Dir {
			t.Fatalf("record %d = %+v, want %+v", i, g, want)
		}
		if g.Ts != want.Ts.Truncate(time.Microsecond)-base {
			t.Fatalf("record %d ts = %v, want %v truncated and re-based", i, g.Ts, want.Ts)
		}
	}
}

// TestWriteTcpdumpRejectsMultiDay pins the single-day clock guard.
func TestWriteTcpdumpRejectsMultiDay(t *testing.T) {
	tr := &Trace{Records: []Record{{
		Ts: 24 * time.Hour, Kind: packet.KindSYN, Dir: DirOut,
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("11.0.0.1"),
	}}}
	var buf strings.Builder
	if err := WriteTcpdump(&buf, tr); err == nil {
		t.Fatal("24h timestamp accepted by the single-day text format")
	}
}
