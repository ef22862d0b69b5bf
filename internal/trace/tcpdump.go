package trace

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/packet"
)

// TcpdumpStream decodes the text output of `tcpdump -n` — the format
// the original mid-1990s traces circulated in — line by line. Lines
// look like:
//
//	12:00:00.123456 IP 10.1.2.3.443 > 192.168.1.5.51234: Flags [S.], seq 1, ...
//
// Only TCP lines carrying a Flags field are decoded; everything else
// (ARP, UDP, ICMP, continuation lines) is skipped, mirroring how the
// leaf-router classifier ignores non-TCP traffic. Direction is
// assigned by destination relative to the stub prefix, like
// PcapStream. Timestamps are wall-clock times of day; the stream's
// clock starts at the first accepted packet, and a backward jump of
// more than half a day is treated as midnight rollover.
//
// The text carries no span header: the span is the largest timestamp
// + 1, final once the stream is exhausted. Records are delivered in
// file order; a record earlier than the first one comes out with a
// negative timestamp, which the ingest pipeline refuses as unsorted —
// use ReadTcpdump to repair unordered files.
type TcpdumpStream struct {
	sc     *bufio.Scanner
	prefix netip.Prefix
	lineNo int

	haveBase  bool
	base      time.Duration // first packet's time of day
	dayOffset time.Duration
	prevTOD   time.Duration
	span      time.Duration
}

// NewTcpdumpStream returns a stream over r whose records take their
// direction from stubPrefix.
func NewTcpdumpStream(r io.Reader, stubPrefix netip.Prefix) *TcpdumpStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &TcpdumpStream{sc: sc, prefix: stubPrefix}
}

// Span returns the largest timestamp + 1 seen so far (0 before the
// first record); it is final once NextBatch has returned io.EOF.
func (s *TcpdumpStream) Span() time.Duration { return s.span }

// NextBatch decodes up to len(buf) records into buf. io.EOF (possibly
// alongside n > 0) marks the end of input.
func (s *TcpdumpStream) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return n, err
			}
			return n, io.EOF
		}
		s.lineNo++
		rec, tod, ok, err := parseTcpdumpLine(s.sc.Text(), s.prefix)
		if err != nil {
			return n, fmt.Errorf("trace: tcpdump line %d: %w", s.lineNo, err)
		}
		if !ok {
			continue
		}
		if !s.haveBase {
			s.haveBase = true
			s.base = tod
			s.prevTOD = tod
		}
		if tod < s.prevTOD-12*time.Hour {
			s.dayOffset += 24 * time.Hour
		}
		s.prevTOD = tod
		rec.Ts = tod + s.dayOffset - s.base
		if rec.Ts >= s.span {
			s.span = rec.Ts + 1
		}
		buf[n] = rec
		n++
	}
	return n, nil
}

// ReadTcpdump imports tcpdump text (see TcpdumpStream) as a Trace,
// sorted by timestamp.
func ReadTcpdump(r io.Reader, name string, stubPrefix netip.Prefix) (*Trace, error) {
	s := NewTcpdumpStream(r, stubPrefix)
	recs, err := collect(s, nil)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name, Span: s.Span(), Records: recs}
	t.Sort()
	return t, nil
}

// WriteTcpdump renders a trace in the `tcpdump -n` text format
// ReadTcpdump parses — the round-trip used to build text fixtures for
// the streaming importer. Each record becomes one line:
//
//	12:00:00.123456 IP 10.1.2.3.443 > 192.168.1.5.51234: Flags [S], seq 0, win 0, length 0
//
// Timestamps render as time of day starting from the record's Ts;
// traces spanning 24h or more are rejected (the text format carries no
// date, and ReadTcpdump's midnight-rollover heuristic must not be fed
// fabricated rollovers). KindNotTCP records are skipped — they have no
// Flags field — so a round trip preserves exactly the classifiable
// records.
func WriteTcpdump(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Kind == packet.KindNotTCP {
			continue
		}
		if r.Ts < 0 || r.Ts >= 24*time.Hour {
			return fmt.Errorf("trace: record at %v outside the text format's single-day clock", r.Ts)
		}
		var flags string
		switch r.Kind {
		case packet.KindSYN:
			flags = "S"
		case packet.KindSYNACK:
			flags = "S."
		case packet.KindFIN:
			flags = "F."
		case packet.KindRST:
			flags = "R."
		default:
			flags = "."
		}
		ts := r.Ts
		h := ts / time.Hour
		m := (ts % time.Hour) / time.Minute
		s := (ts % time.Minute) / time.Second
		us := (ts % time.Second) / time.Microsecond
		if _, err := fmt.Fprintf(bw, "%02d:%02d:%02d.%06d IP %s.%d > %s.%d: Flags [%s], seq 0, win 0, length 0\n",
			h, m, s, us, r.Src, r.SrcPort, r.Dst, r.DstPort, flags); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseTcpdumpLine extracts one record; ok=false means skip the line.
func parseTcpdumpLine(line string, stubPrefix netip.Prefix) (Record, time.Duration, bool, error) {
	fields := strings.Fields(line)
	// Minimal shape: ts IP src > dst: Flags [..]
	if len(fields) < 7 || fields[1] != "IP" || fields[3] != ">" {
		return Record{}, 0, false, nil
	}
	flagsIdx := -1
	for i, f := range fields {
		if f == "Flags" {
			flagsIdx = i
			break
		}
	}
	if flagsIdx < 0 || flagsIdx+1 >= len(fields) {
		return Record{}, 0, false, nil // not a TCP line
	}

	tod, err := parseTimeOfDay(fields[0])
	if err != nil {
		return Record{}, 0, false, err
	}
	src, srcPort, err := parseHostPort(fields[2])
	if err != nil {
		return Record{}, 0, false, err
	}
	dstField := strings.TrimSuffix(fields[4], ":")
	dst, dstPort, err := parseHostPort(dstField)
	if err != nil {
		return Record{}, 0, false, err
	}
	kind, err := parseTcpdumpFlags(fields[flagsIdx+1])
	if err != nil {
		return Record{}, 0, false, err
	}

	dir := DirOut
	if stubPrefix.Contains(dst) {
		dir = DirIn
	}
	return Record{
		Kind: kind, Dir: dir,
		Src: src, Dst: dst,
		SrcPort: srcPort, DstPort: dstPort,
	}, tod, true, nil
}

// parseTimeOfDay parses HH:MM:SS[.frac].
func parseTimeOfDay(s string) (time.Duration, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil || h < 0 || h > 23 {
		return 0, fmt.Errorf("bad hour in %q", s)
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil || m < 0 || m > 59 {
		return 0, fmt.Errorf("bad minute in %q", s)
	}
	sec, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || sec < 0 || sec >= 61 {
		return 0, fmt.Errorf("bad second in %q", s)
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(sec*float64(time.Second)), nil
}

// parseHostPort splits "a.b.c.d.port" (tcpdump joins address and port
// with a dot).
func parseHostPort(s string) (netip.Addr, uint16, error) {
	idx := strings.LastIndexByte(s, '.')
	if idx <= 0 || idx == len(s)-1 {
		return netip.Addr{}, 0, fmt.Errorf("bad host.port %q", s)
	}
	addr, err := netip.ParseAddr(s[:idx])
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("bad address in %q: %w", s, err)
	}
	port, err := strconv.ParseUint(s[idx+1:], 10, 16)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("bad port in %q: %w", s, err)
	}
	return addr, uint16(port), nil
}

// parseTcpdumpFlags maps tcpdump's bracket notation to a Kind:
// S=SYN, F=FIN, R=RST, P=PSH, U=URG, .=ACK (W/E/none ignored).
func parseTcpdumpFlags(s string) (packet.Kind, error) {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "["), "],")
	s = strings.TrimSuffix(s, "]")
	var flags uint8
	for _, c := range s {
		switch c {
		case 'S':
			flags |= packet.FlagSYN
		case 'F':
			flags |= packet.FlagFIN
		case 'R':
			flags |= packet.FlagRST
		case 'P':
			flags |= packet.FlagPSH
		case 'U':
			flags |= packet.FlagURG
		case '.':
			flags |= packet.FlagACK
		case 'W', 'E', 'w', 'e', 'n':
			// ECN bits / "none": irrelevant to classification.
		default:
			return 0, fmt.Errorf("unknown tcpdump flag %q in %q", string(c), s)
		}
	}
	return packet.ClassifyFlags(flags), nil
}
