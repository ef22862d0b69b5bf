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

// parseReference is the decoder FrameParser.Parse replaced, kept as
// the reference FuzzFrameParse holds it to: strip the link layer, run
// the paper's classifier, decode the segment, and test the destination
// against the stub prefix.
func parseReference(linkType uint32, prefix netip.Prefix, ts time.Duration, data []byte) (Record, bool) {
	raw, err := pcapng.LinkPayload(linkType, data)
	if err != nil || packet.Classify(raw) == packet.KindNotTCP {
		return Record{}, false
	}
	var seg packet.Segment
	if err := seg.Unmarshal(raw); err != nil {
		return Record{}, false
	}
	dir := DirOut
	if prefix.Contains(seg.IP.Dst) {
		dir = DirIn
	}
	return Record{
		Ts: ts, Src: seg.IP.Src, Dst: seg.IP.Dst,
		SrcPort: seg.TCP.SrcPort, DstPort: seg.TCP.DstPort,
		Kind: seg.Kind(), Dir: dir,
	}, true
}

// FuzzFrameParse pins the frame decoder every input path shares to the
// classify-then-decode composition it replaced: on arbitrary frame
// bytes under either link type, and for stub prefixes of every shape
// (/16, /0, /32, one with host bits set, IPv6, v4-mapped IPv6 and the
// zero Prefix), Parse accepts exactly the frames the reference
// accepts and fills every Record field the same way. It never panics.
func FuzzFrameParse(f *testing.F) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("130.216.0.9")
	seg := packet.Build(src, dst, 1234, 80, 0, 0, packet.FlagSYN)
	raw := seg.Marshal(nil)
	eth := append(append(make([]byte, 0, 14+len(raw)), make([]byte, 12)...), 0x08, 0x00)
	eth = append(eth, raw...)
	vlan := append(append(make([]byte, 0, 18+len(raw)), make([]byte, 12)...), 0x81, 0x00, 0x00, 0x05, 0x08, 0x00)
	vlan = append(vlan, raw...)
	edit := func(at int, b byte) []byte {
		out := append([]byte(nil), raw...)
		out[at] = b
		return out
	}

	f.Add(raw, true)
	f.Add(eth, false)
	f.Add(vlan, false)
	f.Add([]byte{}, true)
	f.Add([]byte{0x45}, false)
	f.Add(raw[:39], true)
	f.Add(edit(0, 0x46), true)  // IPv4 options: Classify passes, Unmarshal refuses
	f.Add(edit(6, 0x40), true)  // DF only: accepted
	f.Add(edit(6, 0x20), true)  // MF
	f.Add(edit(7, 0x01), true)  // fragment offset
	f.Add(edit(9, 17), true)    // UDP
	f.Add(edit(32, 0x40), true) // TCP data offset below 20
	f.Add(edit(32, 0x60), true) // TCP data offset past the frame
	f.Add(edit(33, packet.FlagSYN|packet.FlagACK), true)
	f.Add(edit(16, 11), true) // destination outside 130.216/16

	prefixes := []netip.Prefix{
		netip.MustParsePrefix("130.216.0.0/16"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("130.216.0.9/32"),
		netip.MustParsePrefix("130.216.7.7/16"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("::ffff:130.216.0.0/112"),
		{},
	}
	f.Fuzz(func(t *testing.T, data []byte, rawLink bool) {
		linkType := uint32(pcapng.LinkTypeEthernet)
		if rawLink {
			linkType = pcapng.LinkTypeRaw
		}
		const ts = 3 * time.Second
		for _, prefix := range prefixes {
			parser, err := NewFrameParser(linkType, prefix)
			if err != nil {
				t.Fatal(err)
			}
			var got Record
			ok := parser.Parse(ts, data, &got)
			want, wantOK := parseReference(linkType, prefix, ts, data)
			if ok != wantOK || ok && got != want {
				t.Fatalf("prefix %v: Parse = %v, %+v; reference %v, %+v", prefix, ok, got, wantOK, want)
			}
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
