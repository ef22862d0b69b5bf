package trace

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

// FrameParser is the one frame decoder: it turns a captured link-layer
// frame into a Record by stripping the link layer (pcapng.LinkPayload —
// Ethernet MAC headers and VLAN tags never reach the classifier),
// classifying the packet with the paper's classifier, decoding the TCP
// segment, and inferring direction from the destination. The pcap file
// stream and the live capture producer both decode through it, so
// every input path classifies the same wire bytes the same way. Parse
// never panics on arbitrary bytes (pinned by FuzzFrameParse) and
// allocates nothing.
type FrameParser struct {
	linkType uint32
	prefix   netip.Prefix
	seg      packet.Segment // decode target, kept off the per-call stack
}

// NewFrameParser builds a parser for frames of the given pcap link
// type (LinkTypeRaw or LinkTypeEthernet). stubPrefix drives direction
// inference: packets destined inside it are inbound, everything else
// outbound. Destination, not source, because flood SYNs carry forged
// sources — a source-based rule would misfile the very packets SYN-dog
// must count. Callers that take direction from elsewhere, or need none,
// pass the zero prefix; callers that rely on the inference must reject
// a missing prefix themselves.
func NewFrameParser(linkType uint32, stubPrefix netip.Prefix) (FrameParser, error) {
	switch linkType {
	case pcapng.LinkTypeRaw, pcapng.LinkTypeEthernet:
	default:
		return FrameParser{}, fmt.Errorf("trace: unsupported link type %d", linkType)
	}
	return FrameParser{linkType: linkType, prefix: stubPrefix}, nil
}

// Parse decodes one frame captured at ts into *rec and reports whether
// it produced a record. It returns false, leaving *rec unspecified, for
// frames the classifier ignores: non-IPv4, non-TCP, fragmented or
// malformed.
func (p *FrameParser) Parse(ts time.Duration, data []byte, rec *Record) bool {
	raw, err := pcapng.LinkPayload(p.linkType, data)
	if err != nil {
		return false
	}
	if packet.Classify(raw) == packet.KindNotTCP {
		return false
	}
	seg := &p.seg
	if err := seg.Unmarshal(raw); err != nil {
		return false
	}
	dir := DirOut
	if p.prefix.Contains(seg.IP.Dst) {
		dir = DirIn
	}
	// Field by field: a composite literal is assembled on the stack and
	// copied over in 16-byte loads, which measured ~5% slower per pcap
	// record with Record's 64-byte layout.
	rec.Ts = ts
	rec.Src = seg.IP.Src
	rec.Dst = seg.IP.Dst
	rec.SrcPort = seg.TCP.SrcPort
	rec.DstPort = seg.TCP.DstPort
	rec.Kind = seg.Kind()
	rec.Dir = dir
	return true
}
