package trace

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

func streamTestTrace(t *testing.T) *Trace {
	t.Helper()
	p := Auckland()
	p.Name = "stream-test"
	p.Span = 2 * time.Minute
	p.OutagesPerHour = 0
	tr, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("generated trace is empty")
	}
	return tr
}

// drainOneByOne pulls s dry one record per NextBatch call — the
// smallest chunk, against which the collect loop's large chunks are
// compared.
func drainOneByOne(t *testing.T, s interface{ NextBatch([]Record) (int, error) }) []Record {
	t.Helper()
	var out []Record
	var one [1]Record
	for {
		n, err := s.NextBatch(one[:])
		out = append(out, one[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBinaryStreamMatchesReadBinary(t *testing.T) {
	tr := streamTestTrace(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	s, err := NewBinaryStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != tr.Name || s.Span() != tr.Span {
		t.Errorf("header = (%q, %v), want (%q, %v)", s.Name(), s.Span(), tr.Name, tr.Span)
	}
	if int(s.Count()) != len(tr.Records) {
		t.Errorf("count = %d, want %d", s.Count(), len(tr.Records))
	}
	got := drainOneByOne(t, s)
	want, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("stream yielded %d records, ReadBinary %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d: stream %+v != materialized %+v", i, got[i], want.Records[i])
		}
	}
	// A second NextBatch past EOF stays EOF.
	if n, err := s.NextBatch(make([]Record, 4)); n != 0 || err != io.EOF {
		t.Errorf("NextBatch past EOF = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestBinaryStreamTruncated(t *testing.T) {
	tr := streamTestTrace(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	s, err := NewBinaryStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]Record, 64)
	for {
		_, err := s.NextBatch(chunk)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
		return
	}
}

func TestBinaryStreamBadMagic(t *testing.T) {
	if _, err := NewBinaryStream(bytes.NewReader([]byte("NOTADOG1xxxxxxxxxxxx"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestCSVStreamMatchesReadCSV(t *testing.T) {
	tr := streamTestTrace(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	s := NewCSVStream(bytes.NewReader(data))
	got := drainOneByOne(t, s)
	if s.Name() != tr.Name || s.Span() != tr.Span {
		t.Errorf("header = (%q, %v), want (%q, %v)", s.Name(), s.Span(), tr.Name, tr.Span)
	}
	want, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("stream yielded %d records, ReadCSV %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d: stream %+v != materialized %+v", i, got[i], want.Records[i])
		}
	}
}

func TestCSVStreamBadLine(t *testing.T) {
	s := NewCSVStream(bytes.NewReader([]byte("# trace x span_ns=100\n1,syn,sideways,1.2.3.4,5.6.7.8,1,2\n")))
	if _, err := s.NextBatch(make([]Record, 4)); err == nil {
		t.Fatal("want error for bad direction")
	}
}

func TestPcapStreamMatchesReadPcap(t *testing.T) {
	tr := streamTestTrace(t)
	prefix := netip.MustParsePrefix("130.216.0.0/16")
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	s, err := NewPcapStream(bytes.NewReader(data), prefix)
	if err != nil {
		t.Fatal(err)
	}
	if s.Span() != 0 {
		t.Errorf("span before EOF = %v, want 0", s.Span())
	}
	got := drainOneByOne(t, s)

	want, err := ReadPcap(bytes.NewReader(data), "stream-test", prefix)
	if err != nil {
		t.Fatal(err)
	}
	if s.Span() != want.Span {
		t.Errorf("stream span = %v, ReadPcap span = %v", s.Span(), want.Span)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("stream yielded %d records, ReadPcap %d", len(got), len(want.Records))
	}
	// WritePcap preserves record order and the trace is sorted, so the
	// stream (capture order) and ReadPcap (sorted) must agree exactly.
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d: stream %+v != materialized %+v", i, got[i], want.Records[i])
		}
	}
}

// TestPcapStreamEthernet pins the satellite fix end to end: an
// Ethernet-framed capture (with and without VLAN tags) must classify
// identically to a raw one — the MAC header never reaches the
// classifier.
func TestPcapStreamEthernet(t *testing.T) {
	tr := streamTestTrace(t)
	prefix := netip.MustParsePrefix("130.216.0.0/16")

	for _, tc := range []struct {
		name string
		tags []uint16
	}{
		{"plain ethernet", nil},
		{"802.1q", []uint16{0x8100}},
		{"qinq", []uint16{0x88a8, 0x8100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := writeEthernetPcap(t, tr, tc.tags)
			s, err := NewPcapStream(bytes.NewReader(data), prefix)
			if err != nil {
				t.Fatal(err)
			}
			got := drainOneByOne(t, s)

			var rawBuf bytes.Buffer
			if err := WritePcap(&rawBuf, tr); err != nil {
				t.Fatal(err)
			}
			want, err := ReadPcap(&rawBuf, tr.Name, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Records) {
				t.Fatalf("ethernet stream yielded %d records, raw %d", len(got), len(want.Records))
			}
			for i := range got {
				if got[i] != want.Records[i] {
					t.Fatalf("record %d: ethernet %+v != raw %+v", i, got[i], want.Records[i])
				}
			}
		})
	}
}

// writeEthernetPcap writes tr as a LINKTYPE_ETHERNET capture, wrapping
// each IPv4 packet in a MAC header plus the given VLAN tag TPIDs. The
// pcapng Writer only emits raw captures, so the header is patched and
// frames are hand-wrapped.
func writeEthernetPcap(t *testing.T, tr *Trace, tags []uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw, err := pcapng.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var segBuf []byte
	for _, r := range tr.Records {
		flags, ok := kindToFlags(r.Kind)
		if !ok {
			continue
		}
		seg := packet.Build(r.Src, r.Dst, r.SrcPort, r.DstPort, 0, 0, flags)
		segBuf = seg.Marshal(segBuf[:0])
		frame := make([]byte, 0, 14+4*len(tags)+len(segBuf))
		frame = append(frame, make([]byte, 12)...)
		for _, tag := range tags {
			frame = append(frame, byte(tag>>8), byte(tag), 0x00, 0x05)
		}
		frame = append(frame, 0x08, 0x00)
		frame = append(frame, segBuf...)
		if err := pw.Write(pcapng.Packet{Ts: r.Ts, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	// Patch the file header's link type from raw (101) to ethernet (1).
	data[20] = 1
	return data
}

func TestPcapStreamRejectsUnknownLink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := pcapng.NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[20] = 147 // some exotic link type
	if _, err := NewPcapStream(bytes.NewReader(data), netip.MustParsePrefix("130.216.0.0/16")); err == nil {
		t.Fatal("want error for unsupported link type")
	}
}
