package trace

import (
	"io"
	"net/netip"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

// WritePcap exports the trace as a libpcap capture with LINKTYPE_RAW
// packets: each record becomes a minimal IPv4+TCP segment whose flags
// encode the record kind. Records whose kind cannot be expressed as
// TCP flags (KindNotTCP) are skipped.
func WritePcap(w io.Writer, t *Trace) error {
	pw, err := pcapng.NewWriter(w, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, packet.IPv4HeaderLen+packet.TCPHeaderLen)
	for _, r := range t.Records {
		flags, ok := kindToFlags(r.Kind)
		if !ok {
			continue
		}
		seg := packet.Build(r.Src, r.Dst, r.SrcPort, r.DstPort, 0, 0, flags)
		// The writer copies the bytes into its record, so the one
		// marshal buffer serves every record.
		buf = seg.Marshal(buf[:0])
		if err := pw.Write(pcapng.Packet{Ts: r.Ts, Data: buf}); err != nil {
			return err
		}
	}
	return nil
}

// ReadPcap imports a libpcap capture, classifying each packet with the
// paper's classifier and assigning direction by destination: packets
// destined inside stubPrefix are inbound, everything else outbound.
// Destination is the right discriminator because flood SYNs carry
// forged sources — a source-based rule would misfile the very packets
// SYN-dog must count. Non-TCP and fragmented packets are dropped,
// exactly as the leaf-router classifier would ignore them. Ethernet
// captures are supported by skipping the MAC header.
func ReadPcap(r io.Reader, name string, stubPrefix netip.Prefix) (*Trace, error) {
	s, err := NewPcapStream(r, stubPrefix)
	if err != nil {
		return nil, err
	}
	recs, err := collect(s, nil)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name, Span: s.Span(), Records: recs}
	t.Sort()
	return t, nil
}

// kindToFlags maps a record kind back to representative TCP flag bits.
func kindToFlags(k packet.Kind) (uint8, bool) {
	switch k {
	case packet.KindSYN:
		return packet.FlagSYN, true
	case packet.KindSYNACK:
		return packet.FlagSYN | packet.FlagACK, true
	case packet.KindFIN:
		return packet.FlagFIN | packet.FlagACK, true
	case packet.KindRST:
		return packet.FlagRST, true
	case packet.KindOther:
		return packet.FlagACK, true
	default:
		return 0, false
	}
}
