package trace

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

func sampleTrace() *Trace {
	tr := &Trace{Name: "sample site", Span: time.Minute, Records: []Record{
		rec(0, packet.KindSYN, DirOut),
		rec(time.Second, packet.KindSYNACK, DirIn),
		rec(2*time.Second, packet.KindFIN, DirOut),
		rec(3*time.Second, packet.KindRST, DirIn),
		rec(4*time.Second, packet.KindOther, DirOut),
	}}
	return tr
}

func assertTracesEqual(t *testing.T, got, want *Trace) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name = %q, want %q", got.Name, want.Name)
	}
	if got.Span != want.Span {
		t.Errorf("span = %v, want %v", got.Span, want.Span)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, got, want)
}

func TestBinaryBadMagic(t *testing.T) {
	junk := make([]byte, 64)
	if _, err := ReadBinary(bytes.NewReader(junk)); err != ErrBadMagic {
		t.Errorf("error = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, 20, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: error = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, got, want)
}

func TestCSVToleratesCommentsAndBlanks(t *testing.T) {
	in := `# trace demo span_ns=60000000000

# a comment
ts_ns,kind,dir,src,dst,sport,dport
1000000000,syn,out,152.2.1.1,11.0.0.1,1000,80
`
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || tr.Span != time.Minute {
		t.Errorf("header parsed wrong: %q %v", tr.Name, tr.Span)
	}
	if len(tr.Records) != 1 || tr.Records[0].Kind != packet.KindSYN {
		t.Errorf("records = %+v", tr.Records)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"missing span", "# trace demo\n"},
		{"bad span", "# trace demo span_ns=xyz\n"},
		{"short line", "5,syn,out\n"},
		{"bad ts", "x,syn,out,1.2.3.4,5.6.7.8,1,2\n"},
		{"bad kind", "5,bogus,out,1.2.3.4,5.6.7.8,1,2\n"},
		{"bad dir", "5,syn,sideways,1.2.3.4,5.6.7.8,1,2\n"},
		{"bad src", "5,syn,out,zzz,5.6.7.8,1,2\n"},
		{"bad dst", "5,syn,out,1.2.3.4,zzz,1,2\n"},
		{"bad sport", "5,syn,out,1.2.3.4,5.6.7.8,x,2\n"},
		{"bad dport", "5,syn,out,1.2.3.4,5.6.7.8,1,x\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Errorf("input %q accepted", tc.in)
			}
		})
	}
}

func TestParseKindCoversAll(t *testing.T) {
	for _, k := range []packet.Kind{
		packet.KindSYN, packet.KindSYNACK, packet.KindFIN,
		packet.KindRST, packet.KindOther, packet.KindNotTCP,
	} {
		got, err := parseKind(k.String())
		if err != nil || got != k {
			t.Errorf("parseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestPcapRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := WritePcap(&buf, want); err != nil {
		t.Fatal(err)
	}
	prefix := netip.MustParsePrefix("152.2.0.0/16")
	got, err := ReadPcap(bytes.NewReader(buf.Bytes()), "sample site", prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		// Timestamps survive at microsecond resolution; ours are
		// second-aligned so they round-trip exactly.
		if g.Ts != w.Ts || g.Kind != w.Kind || g.Dir != w.Dir ||
			g.Src != w.Src || g.Dst != w.Dst ||
			g.SrcPort != w.SrcPort || g.DstPort != w.DstPort {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestWritePcapAllocs pins that exporting a capture costs a fixed
// number of allocations (the writer and its buffers), not one per
// record: a trace a hundred times longer must not allocate more.
func TestWritePcapAllocs(t *testing.T) {
	repeat := func(n int) *Trace {
		tr := &Trace{Span: time.Duration(n) * time.Second}
		for i := 0; i < n; i++ {
			r := sampleTrace().Records[i%5]
			r.Ts = time.Duration(i) * time.Second
			tr.Records = append(tr.Records, r)
		}
		return tr
	}
	allocs := func(tr *Trace) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := WritePcap(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(repeat(50)), allocs(repeat(5000))
	if large > small {
		t.Errorf("WritePcap allocated %.0f times for 50 records and %.0f for 5000; want no growth with the record count",
			small, large)
	}
}

func TestReadPcapDirectionInference(t *testing.T) {
	// A packet sourced outside the prefix must come back as DirIn even
	// if the original record claimed otherwise (direction is inferred,
	// not stored, in pcap form).
	tr := &Trace{Name: "x", Span: time.Minute, Records: []Record{
		{Ts: 0, Kind: packet.KindSYN, Dir: DirOut,
			Src: netip.MustParseAddr("11.9.9.9"), Dst: netip.MustParseAddr("152.2.0.1"),
			SrcPort: 5, DstPort: 80},
	}}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(bytes.NewReader(buf.Bytes()), "x", netip.MustParsePrefix("152.2.0.0/16"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Dir != DirIn {
		t.Errorf("inferred dir = %v, want in", got.Records[0].Dir)
	}
}

func TestGeneratedTraceSurvivesAllCodecs(t *testing.T) {
	p := Auckland()
	p.Span = 5 * time.Minute
	orig, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, fromBin, orig)

	var csv bytes.Buffer
	if err := WriteCSV(&csv, orig); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, fromCSV, orig)
}
