package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapng"
)

// This file holds the streaming record readers the ingest pipeline is
// built on: each decodes records a chunk at a time in O(1) memory
// through its one read method, NextBatch. The materializing readers
// (ReadBinary, ReadCSV, ReadPcap, and ReadTcpdump over TcpdumpStream
// in tcpdump.go) share one collect loop over these streams, so there
// is exactly one decoder per format.

// BinaryStream decodes the compact binary format.
type BinaryStream struct {
	br    *bufio.Reader
	name  string
	span  time.Duration
	count uint32
	read  uint32
	rec   [recordWireLen]byte // record buffer, kept off the per-call stack
}

// NewBinaryStream parses the binary header and returns a stream over
// the records. The span and name are known immediately.
func NewBinaryStream(r io.Reader) (*BinaryStream, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	if magic != binaryMagic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	s := &BinaryStream{
		br:    br,
		span:  time.Duration(binary.LittleEndian.Uint64(hdr[0:8])),
		count: binary.LittleEndian.Uint32(hdr[8:12]),
	}
	var nameLen [2]byte
	if _, err := io.ReadFull(br, nameLen[:]); err != nil {
		return nil, wrapTrunc(err)
	}
	name := make([]byte, binary.LittleEndian.Uint16(nameLen[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, wrapTrunc(err)
	}
	s.name = string(name)
	return s, nil
}

// Span returns the header's capture span.
func (s *BinaryStream) Span() time.Duration { return s.span }

// Name returns the header's trace name.
func (s *BinaryStream) Name() string { return s.name }

// Count returns the header's record count.
func (s *BinaryStream) Count() uint32 { return s.count }

// NextBatch decodes up to len(buf) records into buf, returning how
// many were filled. io.EOF arrives with the chunk that delivers the
// header's last record (or alone, once it has been delivered);
// ErrTruncated means the stream ended early. The decode loop stays
// inside one call, so the per-record cost is a ReadFull from the bufio
// buffer plus field extraction — no interface dispatch.
func (s *BinaryStream) NextBatch(buf []Record) (int, error) {
	n := 0
	rec := &s.rec
	for n < len(buf) && s.read < s.count {
		if _, err := io.ReadFull(s.br, rec[:]); err != nil {
			return n, wrapTrunc(err)
		}
		s.read++
		buf[n] = Record{
			Ts:      time.Duration(binary.LittleEndian.Uint64(rec[0:8])),
			Kind:    packet.Kind(rec[8]),
			Dir:     Direction(rec[9]),
			Src:     netip.AddrFrom4([4]byte(rec[10:14])),
			Dst:     netip.AddrFrom4([4]byte(rec[14:18])),
			SrcPort: binary.LittleEndian.Uint16(rec[18:20]),
			DstPort: binary.LittleEndian.Uint16(rec[20:22]),
		}
		n++
	}
	if s.read >= s.count {
		return n, io.EOF
	}
	return n, nil
}

// CSVStream decodes the text format line by line. The span and name
// come from the "# trace" header line, which WriteCSV emits first;
// they are known once a line at or past the header has been scanned.
type CSVStream struct {
	sc     *bufio.Scanner
	name   string
	span   time.Duration
	lineNo int
}

// NewCSVStream returns a stream over the CSV records.
func NewCSVStream(r io.Reader) *CSVStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &CSVStream{sc: sc}
}

// Span returns the span declared by the header line, or 0 if no header
// has been scanned yet. It is authoritative once NextBatch has returned
// io.EOF.
func (s *CSVStream) Span() time.Duration { return s.span }

// Name returns the trace name declared by the header line, if any.
func (s *CSVStream) Name() string { return s.name }

// next returns the next record or io.EOF at end of input.
func (s *CSVStream) next() (Record, error) {
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# trace "):
			var hdr Trace
			if err := parseCSVHeader(&hdr, line); err != nil {
				return Record{}, fmt.Errorf("trace: line %d: %w", s.lineNo, err)
			}
			s.name, s.span = hdr.Name, hdr.Span
			continue
		case strings.HasPrefix(line, "#") || strings.HasPrefix(line, "ts_ns"):
			continue
		}
		rec, err := parseCSVRecord(line)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", s.lineNo, err)
		}
		return rec, nil
	}
	if err := s.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// NextBatch decodes up to len(buf) records into buf. io.EOF (possibly
// alongside n > 0) marks the end of input.
func (s *CSVStream) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		r, err := s.next()
		if err != nil {
			return n, err
		}
		buf[n] = r
		n++
	}
	return n, nil
}

// PcapStream decodes a libpcap capture packet by packet through a
// FrameParser: link-layer stripping, the paper's classifier, TCP
// decoding and destination-based direction inference relative to the
// stub prefix. Non-TCP, non-IPv4, fragmented and malformed packets are
// skipped, exactly as the leaf-router classifier would ignore them.
//
// A pcap file carries no span header: Span reports lastTs+1 once the
// stream is exhausted (0 before). Records are delivered in capture
// order; captures from a single interface are time-ordered, which the
// ingest pipeline verifies — use ReadPcap to repair unordered files.
type PcapStream struct {
	pr     *pcapng.Reader
	parser FrameParser
	max    time.Duration
	seen   bool
}

// NewPcapStream parses the pcap file header and returns a stream whose
// records take their direction from stubPrefix (see NewFrameParser).
// Unsupported link types are an error.
func NewPcapStream(r io.Reader, stubPrefix netip.Prefix) (*PcapStream, error) {
	pr, err := pcapng.NewReader(r)
	if err != nil {
		return nil, err
	}
	parser, err := NewFrameParser(pr.LinkType(), stubPrefix)
	if err != nil {
		return nil, err
	}
	return &PcapStream{pr: pr, parser: parser}, nil
}

// Span returns lastTs+1 after the stream is exhausted, 0 before (pcap
// files carry no span header).
func (s *PcapStream) Span() time.Duration {
	if !s.seen {
		return 0
	}
	return s.max + 1
}

// NextBatch decodes up to len(buf) classified records into buf. io.EOF
// (possibly alongside n > 0) marks a clean end of stream. The whole
// decode+classify loop runs inside one call against the buffered
// reader, which is what lets the batch pipeline amortize its
// per-record costs.
func (s *PcapStream) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		p, err := s.pr.NextReuse()
		if err != nil {
			return n, err
		}
		if !s.parser.Parse(p.Ts, p.Data, &buf[n]) {
			continue
		}
		// Span covers classified records only: skipped frames never
		// extend it.
		if p.Ts > s.max || !s.seen {
			s.max = p.Ts
			s.seen = true
		}
		n++
	}
	return n, nil
}

// collect appends every record s yields to recs, decoding straight into
// the slice's spare capacity — the one materializing loop ReadBinary,
// ReadCSV, ReadPcap and ReadTcpdump share.
func collect(s interface{ NextBatch([]Record) (int, error) }, recs []Record) ([]Record, error) {
	for {
		if len(recs) == cap(recs) {
			recs = slices.Grow(recs, 1024)
		}
		n, err := s.NextBatch(recs[len(recs):cap(recs)])
		recs = recs[:len(recs)+n]
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
