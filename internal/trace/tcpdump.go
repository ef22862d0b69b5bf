package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
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
		rec, tod, ok, err := parseTcpdumpLine(s.sc.Bytes(), s.prefix)
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
// It reads the scanner's bytes in place and allocates only on an
// error or an address that is not a plain dotted quad.
func parseTcpdumpLine(line []byte, stubPrefix netip.Prefix) (Record, time.Duration, bool, error) {
	// Minimal shape: ts IP src > dst: Flags [..], that is at least 7
	// fields, the first "Flags" field followed by one more.
	var head [5][]byte
	var flags []byte
	n, sawFlags := 0, false
	for rest := line; n < 7 || flags == nil; n++ {
		var f []byte
		if f, rest = nextField(rest); f == nil {
			break
		}
		if n < len(head) {
			head[n] = f
		}
		if sawFlags && flags == nil {
			flags = f
		} else if string(f) == "Flags" {
			sawFlags = true
		}
	}
	if n < 7 || string(head[1]) != "IP" || string(head[3]) != ">" || flags == nil {
		return Record{}, 0, false, nil // not a TCP line
	}

	tod, err := parseTimeOfDay(head[0])
	if err != nil {
		return Record{}, 0, false, err
	}
	src, srcPort, err := parseHostPort(head[2])
	if err != nil {
		return Record{}, 0, false, err
	}
	dst, dstPort, err := parseHostPort(bytes.TrimSuffix(head[4], []byte(":")))
	if err != nil {
		return Record{}, 0, false, err
	}
	kind, err := parseTcpdumpFlags(flags)
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

// nextField returns the first field of b and what follows it; f is
// nil when b holds no field. Fields split at ASCII white space, which
// is all tcpdump prints.
func nextField(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// parseTimeOfDay parses HH:MM:SS[.frac] in integer nanoseconds: the
// fraction's first nine digits are the nanoseconds, so a timestamp is
// exact to the digit (later digits are checked and dropped).
func parseTimeOfDay(b []byte) (time.Duration, error) {
	hh, rest, _ := bytes.Cut(b, []byte(":"))
	mm, ss, ok := bytes.Cut(rest, []byte(":"))
	if !ok || bytes.IndexByte(ss, ':') >= 0 {
		return 0, fmt.Errorf("bad timestamp %q", b)
	}
	h, ok := parseDigits(hh)
	if !ok || h > 23 {
		return 0, fmt.Errorf("bad hour in %q", b)
	}
	m, ok := parseDigits(mm)
	if !ok || m > 59 {
		return 0, fmt.Errorf("bad minute in %q", b)
	}
	whole, frac, _ := bytes.Cut(ss, []byte("."))
	sec, ok := parseDigits(whole)
	if !ok || sec > 60 {
		return 0, fmt.Errorf("bad second in %q", b)
	}
	ns, scale := 0, int(time.Second)
	for _, c := range frac {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad second in %q", b)
		}
		if scale > 1 {
			scale /= 10
			ns += int(c-'0') * scale
		}
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(sec)*time.Second + time.Duration(ns), nil
}

// parseDigits parses a run of one to nine ASCII digits.
func parseDigits(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// parseHostPort splits "a.b.c.d.port" (tcpdump joins address and port
// with a dot).
func parseHostPort(b []byte) (netip.Addr, uint16, error) {
	idx := bytes.LastIndexByte(b, '.')
	if idx <= 0 || idx == len(b)-1 {
		return netip.Addr{}, 0, fmt.Errorf("bad host.port %q", b)
	}
	addr, ok := parseDottedQuad(b[:idx])
	if !ok {
		var err error
		if addr, err = netip.ParseAddr(string(b[:idx])); err != nil {
			return netip.Addr{}, 0, fmt.Errorf("bad address in %q: %w", b, err)
		}
	}
	port, ok := parseDigits(b[idx+1:])
	if !ok || port > math.MaxUint16 {
		return netip.Addr{}, 0, fmt.Errorf("bad port in %q", b)
	}
	return addr, uint16(port), nil
}

// parseDottedQuad parses the IPv4 form netip.ParseAddr accepts: four
// decimal octets without leading zeros. ok=false leaves every other
// form, valid or not, to netip.ParseAddr.
func parseDottedQuad(b []byte) (netip.Addr, bool) {
	var ip [4]byte
	for i := range ip {
		end := bytes.IndexByte(b, '.')
		if i == 3 {
			end = len(b)
		} else if end < 0 {
			return netip.Addr{}, false
		}
		octet := b[:end]
		if len(octet) > 1 && octet[0] == '0' {
			return netip.Addr{}, false
		}
		v, ok := parseDigits(octet)
		if !ok || v > 255 {
			return netip.Addr{}, false
		}
		ip[i] = byte(v)
		if i < 3 {
			b = b[end+1:]
		}
	}
	return netip.AddrFrom4(ip), true
}

// parseTcpdumpFlags maps tcpdump's bracket notation to a Kind:
// S=SYN, F=FIN, R=RST, P=PSH, U=URG, .=ACK (W/E/none ignored).
func parseTcpdumpFlags(b []byte) (packet.Kind, error) {
	b = bytes.TrimSuffix(bytes.TrimPrefix(b, []byte("[")), []byte("],"))
	b = bytes.TrimSuffix(b, []byte("]"))
	var flags uint8
	for _, c := range string(b) {
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
			return 0, fmt.Errorf("unknown tcpdump flag %q in %q", string(c), b)
		}
	}
	return packet.ClassifyFlags(flags), nil
}
