package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

// writeCapture writes tr to path with write, gzip-wrapped when the
// path ends in .gz.
func writeCapture(t *testing.T, path string, write func(io.Writer, *trace.Trace) error, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(&buf)
		if err := write(gz, tr); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
	} else if err := write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScan writes one trace in every container Open reads — through
// trace.Save wherever Save writes the format — and checks what Scan
// reports against the trace that was written: the header's name, span
// and count for the record formats, whose records must also stream
// back through Open exactly; the path, lastTs+1 and the TCP records
// for the packet formats, which carry TCP only (pcap and tcpdump text
// at microsecond resolution, tcpdump text rebased to its first
// packet). An extension with no codec of its own (.ipt) is binary on
// both sides.
func TestScan(t *testing.T) {
	tr := testTrace(t)
	var tcp []trace.Record
	for _, r := range tr.Records {
		if r.Kind != packet.KindNotTCP {
			tcp = append(tcp, r)
		}
	}
	lastUs := tcp[len(tcp)-1].Ts.Truncate(time.Microsecond)
	pcapSpan := lastUs + 1
	txtSpan := lastUs - tcp[0].Ts.Truncate(time.Microsecond) + 1
	dir := t.TempDir()
	for _, c := range []struct {
		file    string
		write   func(io.Writer, *trace.Trace) error // nil: trace.Save
		name    string                              // "" = the path
		span    time.Duration
		records int
	}{
		{"x.trace", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.bin", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.csv", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.pcap", nil, "", pcapSpan, len(tcp)},
		{"x.ipt", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.txt", trace.WriteTcpdump, "", txtSpan, len(tcp)},
		{"x.trace.gz", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.csv.gz", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.pcap.gz", nil, "", pcapSpan, len(tcp)},
		{"x.ipt.gz", nil, tr.Name, tr.Span, len(tr.Records)},
		{"x.txt.gz", trace.WriteTcpdump, "", txtSpan, len(tcp)},
	} {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join(dir, c.file)
			if c.write != nil {
				writeCapture(t, path, c.write, tr)
			} else if err := trace.Save(path, tr); err != nil {
				t.Fatal(err)
			}
			info, err := Scan(path, testPrefix)
			if err != nil {
				t.Fatal(err)
			}
			name := c.name
			if name == "" {
				name = path
			}
			want := Info{Name: name, Span: c.span, Records: c.records}
			if info != want {
				t.Errorf("Scan = %+v, want %+v", info, want)
			}
			if c.name == "" {
				return
			}
			src, _, err := Open(path, testPrefix)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			got, err := drainSource(src)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Records {
				if got[i] != tr.Records[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], tr.Records[i])
				}
			}
		})
	}
}

// drainSource reads src to EOF.
func drainSource(src Source) ([]trace.Record, error) {
	var got []trace.Record
	buf := make([]trace.Record, DefaultChunk)
	for {
		n, err := src.NextBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// TestScanRefuses pins what Scan refuses: every rejection
// trace.Validate makes of the whole trace, including disorder that
// only shows across a chunk boundary.
func TestScanRefuses(t *testing.T) {
	dir := t.TempDir()
	host := netip.MustParseAddr("130.216.1.1")
	peer := netip.MustParseAddr("11.0.0.1")
	syn := func(ts time.Duration) trace.Record {
		return trace.Record{Ts: ts, Kind: packet.KindSYN, Dir: trace.DirOut, Src: host, Dst: peer, SrcPort: 1024, DstPort: 80}
	}
	save := func(file string, tr *trace.Trace) string {
		t.Helper()
		path := filepath.Join(dir, file)
		if err := trace.Save(path, tr); err != nil {
			t.Fatal(err)
		}
		return path
	}

	unsorted := &trace.Trace{Name: "unsorted", Span: time.Hour, Records: []trace.Record{syn(2 * time.Second), syn(time.Second)}}
	// Each chunk sorted on its own; only the first record of the second
	// chunk steps back.
	seam := &trace.Trace{Name: "seam", Span: time.Hour}
	for i := range DefaultChunk + 1 {
		seam.Records = append(seam.Records, syn(time.Duration(i)*time.Millisecond))
	}
	seam.Records[DefaultChunk].Ts = seam.Records[DefaultChunk-1].Ts - 1
	// Text is import-only for Save; a text file earlier than its first
	// packet rebases to a negative time, which is disorder as well.
	unsortedTxt := filepath.Join(dir, "unsorted.txt")
	writeCapture(t, unsortedTxt, trace.WriteTcpdump, unsorted)
	for _, path := range []string{
		save("unsorted.trace", unsorted),
		save("unsorted.csv", unsorted),
		save("unsorted.pcap", unsorted),
		unsortedTxt,
		save("seam.trace", seam),
		save("negative.trace", &trace.Trace{Name: "negative", Span: time.Hour, Records: []trace.Record{syn(-time.Second)}}),
	} {
		if _, err := Scan(path, testPrefix); !errors.Is(err, trace.ErrUnsorted) {
			t.Errorf("%s: err = %v, want ErrUnsorted", filepath.Base(path), err)
		}
	}

	for _, tr := range []*trace.Trace{
		{Name: "at-span", Span: time.Minute, Records: []trace.Record{syn(time.Second), syn(time.Minute)}},
		{Name: "past-span", Span: time.Minute, Records: []trace.Record{syn(time.Second), syn(2 * time.Minute)}},
	} {
		for _, ext := range []string{".trace", ".csv"} {
			path := save(tr.Name+ext, tr)
			if _, err := Scan(path, testPrefix); err == nil || !strings.Contains(err.Error(), "outside") {
				t.Errorf("%s: err = %v, want a record outside the span", filepath.Base(path), err)
			}
		}
	}

}

// TestScanFileErrors pins the errors of Open itself: a missing file and
// a .gz file that is not gzip.
func TestScanFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Scan(filepath.Join(dir, "missing.trace"), testPrefix); err == nil {
		t.Error("missing file accepted")
	}
	notGzip := filepath.Join(dir, "x.trace.gz")
	if err := os.WriteFile(notGzip, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(notGzip, testPrefix); err == nil {
		t.Error("non-gzip .gz accepted")
	}
}

// TestScanRequiresPrefixForPcapAndTcpdump checks that the two packet
// captures that infer direction from the stub prefix are refused
// without one and read with one.
func TestScanRequiresPrefixForPcapAndTcpdump(t *testing.T) {
	dir := t.TempDir()
	host := netip.MustParseAddr("130.216.1.1")
	peer := netip.MustParseAddr("11.0.0.1")
	syn := func(ts time.Duration) trace.Record {
		return trace.Record{Ts: ts, Kind: packet.KindSYN, Dir: trace.DirOut, Src: host, Dst: peer, SrcPort: 1024, DstPort: 80}
	}
	sorted := &trace.Trace{Name: "sorted", Span: time.Hour, Records: []trace.Record{syn(time.Second), syn(2 * time.Second)}}
	pcap := filepath.Join(dir, "sorted.pcap")
	if err := trace.Save(pcap, sorted); err != nil {
		t.Fatal(err)
	}
	txt := filepath.Join(dir, "sorted.txt")
	writeCapture(t, txt, trace.WriteTcpdump, sorted)
	for _, path := range []string{pcap, txt} {
		if _, err := Scan(path, netip.Prefix{}); err == nil || !strings.Contains(err.Error(), "stub prefix") {
			t.Errorf("%s without a prefix: err = %v", filepath.Base(path), err)
		}
		if _, err := Scan(path, testPrefix); err != nil {
			t.Errorf("%s with a prefix: %v", filepath.Base(path), err)
		}
	}
}

// FuzzScanMatchesValidate pins Scan to the materializing reference
// over arbitrary CSV bytes: Scan succeeds exactly when trace.ReadCSV
// decodes the file and Validate accepts the whole trace, and then
// reports the same name, span and record count.
func FuzzScanMatchesValidate(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, &trace.Trace{Name: "seed", Span: time.Minute, Records: []trace.Record{
		{Ts: 0, Kind: packet.KindSYN, Dir: trace.DirOut, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("11.0.0.1"), SrcPort: 1, DstPort: 80},
		{Ts: time.Second, Kind: packet.KindSYNACK, Dir: trace.DirIn, Src: netip.MustParseAddr("11.0.0.1"), Dst: netip.MustParseAddr("10.0.0.1"), SrcPort: 80, DstPort: 1},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const rec = ",syn,out,10.0.0.1,11.0.0.1,1,80\n"
	f.Add([]byte("# trace x span_ns=10\n5" + rec + "3" + rec))              // unsorted
	f.Add([]byte("# trace x span_ns=10\n5" + rec + "10" + rec))             // at the span
	f.Add([]byte("5" + rec + "# trace late span_ns=6\n"))                   // header after the records
	f.Add([]byte("# trace a span_ns=4\n5" + rec + "# trace b span_ns=9\n")) // span grows at the end
	f.Add([]byte("-1" + rec))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := Scan(path, netip.Prefix{})
		want, werr := trace.ReadCSV(bytes.NewReader(data))
		if werr == nil {
			werr = want.Validate()
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("Scan err = %v, ReadCSV+Validate err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if info.Name != want.Name || info.Span != want.Span || info.Records != len(want.Records) {
			t.Fatalf("Scan = %+v, want name %q span %v records %d", info, want.Name, want.Span, len(want.Records))
		}
	})
}
