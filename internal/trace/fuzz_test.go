package trace

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

// FuzzFrameParse pins the frame decoder every input path shares: Parse
// never panics on arbitrary frame bytes under either link type, and
// any record it accepts is a classified TCP record stamped with the
// frame's capture time.
func FuzzFrameParse(f *testing.F) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("130.216.0.9")
	seg := packet.Build(src, dst, 1234, 80, 0, 0, packet.FlagSYN)
	raw := seg.Marshal(nil)
	eth := append(append(make([]byte, 0, 14+len(raw)), make([]byte, 12)...), 0x08, 0x00)
	eth = append(eth, raw...)
	vlan := append(append(make([]byte, 0, 18+len(raw)), make([]byte, 12)...), 0x81, 0x00, 0x00, 0x05, 0x08, 0x00)
	vlan = append(vlan, raw...)

	f.Add(raw, true)
	f.Add(eth, false)
	f.Add(vlan, false)
	f.Add([]byte{}, true)
	f.Add([]byte{0x45}, false)

	prefix := netip.MustParsePrefix("130.216.0.0/16")
	f.Fuzz(func(t *testing.T, data []byte, rawLink bool) {
		linkType := uint32(pcapng.LinkTypeEthernet)
		if rawLink {
			linkType = pcapng.LinkTypeRaw
		}
		parser, err := NewFrameParser(linkType, prefix)
		if err != nil {
			t.Fatal(err)
		}
		const ts = 3 * time.Second
		var rec Record
		if parser.Parse(ts, data, &rec) && (rec.Ts != ts || rec.Kind == packet.KindNotTCP) {
			t.Fatalf("accepted frame decoded to %+v", rec)
		}
	})
}

// FuzzReadBinary asserts the binary codec never panics and that
// whatever it accepts re-encodes and re-decodes to the same trace.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, sampleTrace())
	f.Add(buf.Bytes())
	f.Add([]byte("SYNDOG1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Records) != len(tr.Records) || back.Span != tr.Span {
			t.Fatal("binary round-trip drifted")
		}
	})
}

// FuzzReadCSV asserts the text codec never panics and round-trips what
// it accepts.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteCSV(&buf, sampleTrace())
	f.Add(buf.String())
	f.Add("# trace x span_ns=1\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Records) != len(tr.Records) {
			t.Fatal("csv round-trip drifted")
		}
	})
}

// FuzzAggregate asserts per-period aggregation never panics for any
// record layout and conserves counted records.
func FuzzAggregate(f *testing.F) {
	f.Add(int64(1), uint16(10))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16) {
		n := int(nRaw % 500)
		tr := &Trace{Name: "fz", Span: time.Minute}
		for i := 0; i < n; i++ {
			kind := packet.Kind(uint8(seed+int64(i)) % 6)
			dir := DirIn
			if i%2 == 0 {
				dir = DirOut
			}
			tr.Records = append(tr.Records, Record{
				Ts:   time.Duration(i) * 100 * time.Millisecond,
				Kind: kind,
				Dir:  dir,
			})
		}
		pc, err := tr.Aggregate(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var syn, ack float64
		for i := range pc.OutSYN {
			syn += pc.OutSYN[i]
			ack += pc.InSYNACK[i]
		}
		if int(syn) != tr.CountKind(DirOut, packet.KindSYN) {
			t.Fatal("aggregate lost outbound SYNs")
		}
		if int(ack) != tr.CountKind(DirIn, packet.KindSYNACK) {
			t.Fatal("aggregate lost inbound SYN/ACKs")
		}
	})
}
