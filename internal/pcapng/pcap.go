// Package pcapng reads and writes the classic libpcap capture format
// (the .pcap container, magic 0xa1b2c3d4) using only the standard
// library. The SYN-dog tooling uses it so synthetic traces round-trip
// through tcpdump/wireshark-compatible files.
//
// Both microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) variants
// are supported for reading, in either byte order; writing always
// emits the little-endian microsecond variant with LINKTYPE_RAW
// (packets start directly at the IPv4 header), which matches how the
// simulator produces packets: there is no Ethernet layer.
package pcapng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link types relevant to this repository.
const (
	// LinkTypeRaw means packets begin with the IP header (DLT_RAW=101).
	LinkTypeRaw = 101
	// LinkTypeEthernet is accepted on read; use LinkPayload to strip
	// the 14-byte MAC header (and any VLAN tags) so classification
	// never parses a MAC address as an IP header.
	LinkTypeEthernet = 1
)

// Ethernet framing constants for LinkPayload.
const (
	ethHeaderLen  = 14
	vlanTagLen    = 4
	etherTypeIPv4 = 0x0800
	etherTypeVLAN = 0x8100 // 802.1Q
	etherTypeQinQ = 0x88a8 // 802.1ad service tag
)

// LinkPayload errors.
var (
	ErrUnknownLink = errors.New("pcapng: unsupported link type")
	ErrShortFrame  = errors.New("pcapng: frame shorter than its link header")
	ErrNotIPv4     = errors.New("pcapng: frame does not carry IPv4")
)

// LinkPayload returns the network-layer (IPv4) payload of one captured
// frame given the capture's link type. LINKTYPE_RAW frames are returned
// unchanged; Ethernet frames have the 14-byte MAC header and any 802.1Q
// / 802.1ad VLAN tags stripped, and frames whose final EtherType is not
// IPv4 yield ErrNotIPv4. The returned slice aliases data.
func LinkPayload(linkType uint32, data []byte) ([]byte, error) {
	switch linkType {
	case LinkTypeRaw:
		return data, nil
	case LinkTypeEthernet:
		if len(data) < ethHeaderLen {
			return nil, ErrShortFrame
		}
		etherType := uint16(data[12])<<8 | uint16(data[13])
		off := ethHeaderLen
		for etherType == etherTypeVLAN || etherType == etherTypeQinQ {
			if len(data) < off+vlanTagLen {
				return nil, ErrShortFrame
			}
			etherType = uint16(data[off+2])<<8 | uint16(data[off+3])
			off += vlanTagLen
		}
		if etherType != etherTypeIPv4 {
			return nil, ErrNotIPv4
		}
		return data[off:], nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownLink, linkType)
	}
}

const (
	magicMicro        = 0xa1b2c3d4
	magicNano         = 0xa1b23c4d
	magicMicroSwapped = 0xd4c3b2a1
	magicNanoSwapped  = 0x4d3cb2a1
	versionMajor      = 2
	versionMinor      = 4
	fileHeaderLen     = 24
	recordHeaderLen   = 16
)

// Errors returned by the codec.
var (
	ErrBadMagic  = errors.New("pcapng: bad magic number")
	ErrTruncated = errors.New("pcapng: truncated file")
	ErrTooLarge  = errors.New("pcapng: packet exceeds snap length")
)

// Packet is one captured packet: its capture timestamp and the raw
// bytes starting at the link layer.
type Packet struct {
	// Ts is the capture timestamp as stored in the record: a Duration
	// since the Unix epoch for captures taken by libpcap, since 0 for
	// the ones Writer writes from synthetic traces. Readers pass it on
	// unchanged, and the SYN-dog pipeline bins it as is, so a capture
	// stamped in Unix time starts that many periods after 0.
	Ts time.Duration
	// Data is the captured bytes (snap-length truncated, like libpcap).
	Data []byte
}

// Writer emits a pcap stream. Construct with NewWriter, Add packets,
// and check the error of every call (Writer is a thin shim over an
// io.Writer and performs no buffering of its own).
type Writer struct {
	w       io.Writer
	snapLen uint32
	scratch []byte
}

// NewWriter writes the pcap file header and returns a Writer. snapLen
// bounds stored packet size; 0 selects the conventional 65535.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicro)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapng: write header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Write appends one packet record. Packets longer than the snap length
// are rejected rather than silently truncated: the simulator controls
// its packet sizes, so truncation would be a bug. Write copies p.Data
// into its own buffer, so the caller may reuse p.Data once it returns.
func (w *Writer) Write(p Packet) error {
	if uint32(len(p.Data)) > w.snapLen {
		return ErrTooLarge
	}
	need := recordHeaderLen + len(p.Data)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	sec := uint32(p.Ts / time.Second)
	usec := uint32((p.Ts % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(buf[0:4], sec)
	binary.LittleEndian.PutUint32(buf[4:8], usec)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(p.Data)))
	copy(buf[recordHeaderLen:], p.Data)
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("pcapng: write record: %w", err)
	}
	return nil
}

// readBufSize is the Reader's buffer size: room for over a thousand
// minimal records, so a refill costs one Read per thousand frames.
// Only a record larger than this grows the buffer.
const readBufSize = 64 << 10

// maxRecord is the absolute sanity cap on one record's length,
// independent of the (attacker-controlled) snaplen field: no real
// capture stores 16 MiB frames, and a forged length must not drive
// allocation.
const maxRecord = 16 << 20

// Reader decodes a pcap stream. It owns one read buffer and decodes
// records in place: NextReuse hands out a view of the buffer, so a
// record costs no copy and no call into the source reader until the
// buffer runs dry.
type Reader struct {
	r        io.Reader
	buf      []byte
	off, end int   // unread bytes are buf[off:end]
	err      error // the source's first read error, returned once the buffer runs dry
	big      bool  // big-endian header fields
	nano     bool
	linkType uint32
	snapLen  uint32
}

// NewReader parses the file header and returns a Reader.
//
// The Reader buffers r itself and reads it with single Read calls,
// each taking what is available, so a pipe or FIFO hands each record
// over as soon as its bytes arrive; there is no point in wrapping r
// in a bufio.Reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: r, buf: make([]byte, readBufSize)}
	if err := rd.fill(fileHeaderLen); err != nil {
		return nil, fmt.Errorf("pcapng: read header: %w", errTrunc(err))
	}
	hdr := rd.buf[rd.off : rd.off+fileHeaderLen]
	rd.off += fileHeaderLen
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicro:
	case magicNano:
		rd.nano = true
	case magicMicroSwapped:
		rd.big = true
	case magicNanoSwapped:
		rd.big, rd.nano = true, true
	default:
		return nil, ErrBadMagic
	}
	rd.snapLen = rd.u32(hdr[16:20])
	rd.linkType = rd.u32(hdr[20:24])
	return rd, nil
}

// u32 decodes a header field in the capture's byte order.
func (r *Reader) u32(b []byte) uint32 {
	if r.big {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// SnapLen returns the capture's snap length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next packet, or io.EOF at a clean end of stream.
// A partially written trailing record yields ErrTruncated. The packet's
// Data is freshly allocated and remains valid indefinitely.
func (r *Reader) Next() (Packet, error) {
	p, err := r.NextReuse()
	if err != nil {
		return Packet{}, err
	}
	data := make([]byte, len(p.Data))
	copy(data, p.Data)
	p.Data = data
	return p, nil
}

// NextReuse is Next without the copy: the returned Packet's Data is a
// view of the Reader's buffer that the following NextReuse (or Next)
// call may overwrite. Streaming consumers that classify and drop each
// packet before pulling the next one — the ingest pipeline — use it
// to decode a record without allocating or copying it.
func (r *Reader) NextReuse() (Packet, error) {
	if r.end-r.off < recordHeaderLen {
		if err := r.fill(recordHeaderLen); err != nil {
			if err == io.EOF && r.off == r.end {
				return Packet{}, io.EOF
			}
			return Packet{}, errTrunc(err)
		}
	}
	hdr := r.buf[r.off : r.off+recordHeaderLen]
	sec, frac, capLen := r.u32(hdr[0:4]), r.u32(hdr[4:8]), r.u32(hdr[8:12])
	if r.snapLen > 0 && capLen > r.snapLen {
		return Packet{}, fmt.Errorf("pcapng: record length %d exceeds snaplen %d", capLen, r.snapLen)
	}
	if capLen > maxRecord {
		return Packet{}, fmt.Errorf("pcapng: record length %d exceeds sanity cap", capLen)
	}
	need := recordHeaderLen + int(capLen)
	if r.end-r.off < need {
		if err := r.fill(need); err != nil {
			return Packet{}, errTrunc(err)
		}
	}
	data := r.buf[r.off+recordHeaderLen : r.off+need : r.off+need]
	r.off += need
	ts := time.Duration(sec) * time.Second
	if r.nano {
		ts += time.Duration(frac) * time.Nanosecond
	} else {
		ts += time.Duration(frac) * time.Microsecond
	}
	return Packet{Ts: ts, Data: data}, nil
}

// fill makes at least n unread bytes available at buf[off:]; callers
// call it only when fewer are buffered. It moves the unread tail to
// the front, growing the buffer only if n exceeds it, then reads with
// single Read calls until n bytes are present: it never waits for more
// than the record it was asked for. It returns the source's error once
// the buffer cannot cover n.
func (r *Reader) fill(n int) error {
	if n > len(r.buf) {
		grown := make([]byte, n)
		r.end = copy(grown, r.buf[r.off:r.end])
		r.buf = grown
	} else {
		r.end = copy(r.buf, r.buf[r.off:r.end])
	}
	r.off = 0
	for r.end < n {
		if r.err != nil {
			return r.err
		}
		k, err := r.r.Read(r.buf[r.end:])
		r.end += k
		r.err = err
	}
	return nil
}

// ReadAll drains the stream into a slice.
func ReadAll(r io.Reader) ([]Packet, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func errTrunc(err error) error {
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return ErrTruncated
	}
	return err
}
