package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/packet"
)

// Binary format:
//
//	magic   [8]byte  "SYNDOG1\n"
//	span    int64    nanoseconds
//	count   uint32   record count
//	nameLen uint16 + name bytes
//	records, each 22 bytes:
//	  ts int64 | kind uint8 | dir uint8 | src [4]byte | dst [4]byte |
//	  srcPort uint16 | dstPort uint16
var binaryMagic = [8]byte{'S', 'Y', 'N', 'D', 'O', 'G', '1', '\n'}

const recordWireLen = 8 + 1 + 1 + 4 + 4 + 2 + 2

// Codec errors.
var (
	ErrBadMagic  = errors.New("trace: bad magic")
	ErrTruncated = errors.New("trace: truncated stream")
)

// WriteBinary streams the trace in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(t.Span))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(t.Records)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	name := []byte(t.Name)
	if len(name) > 65535 {
		name = name[:65535]
	}
	var nameLen [2]byte
	binary.LittleEndian.PutUint16(nameLen[:], uint16(len(name)))
	if _, err := bw.Write(nameLen[:]); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	var rec [recordWireLen]byte
	for _, r := range t.Records {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(r.Ts))
		rec[8] = uint8(r.Kind)
		rec[9] = uint8(r.Dir)
		src, dst := r.Src.As4(), r.Dst.As4()
		copy(rec[10:14], src[:])
		copy(rec[14:18], dst[:])
		binary.LittleEndian.PutUint16(rec[18:20], r.SrcPort)
		binary.LittleEndian.PutUint16(rec[20:22], r.DstPort)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a binary trace stream. It is a collect loop over
// BinaryStream; use the stream directly for O(1)-memory ingestion.
func ReadBinary(r io.Reader) (*Trace, error) {
	s, err := NewBinaryStream(r)
	if err != nil {
		return nil, err
	}
	// Pre-size from the header but cap the trust: a forged count must
	// not let a tiny input allocate gigabytes (found by FuzzReadBinary).
	recs, err := collect(s, make([]Record, 0, min(s.Count(), 1<<16)))
	if err != nil {
		return nil, err
	}
	return &Trace{Name: s.Name(), Span: s.Span(), Records: recs}, nil
}

func wrapTrunc(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// WriteCSV streams the trace as text, one record per line:
//
//	# trace <name> span_ns=<span>
//	ts_ns,kind,dir,src,dst,sport,dport
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s span_ns=%d\n", t.Name, int64(t.Span)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "ts_ns,kind,dir,src,dst,sport,dport"); err != nil {
		return err
	}
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%d,%d\n",
			int64(r.Ts), r.Kind, r.Dir, r.Src, r.Dst, r.SrcPort, r.DstPort); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the text format produced by WriteCSV. It is a collect
// loop over CSVStream; use the stream directly for O(1)-memory
// ingestion.
func ReadCSV(r io.Reader) (*Trace, error) {
	s := NewCSVStream(r)
	recs, err := collect(s, nil)
	if err != nil {
		return nil, err
	}
	return &Trace{Name: s.Name(), Span: s.Span(), Records: recs}, nil
}

func parseCSVHeader(t *Trace, line string) error {
	rest := strings.TrimPrefix(line, "# trace ")
	idx := strings.LastIndex(rest, " span_ns=")
	if idx < 0 {
		return errors.New("missing span_ns")
	}
	t.Name = rest[:idx]
	ns, err := strconv.ParseInt(rest[idx+len(" span_ns="):], 10, 64)
	if err != nil {
		return fmt.Errorf("bad span: %w", err)
	}
	t.Span = time.Duration(ns)
	return nil
}

func parseCSVRecord(line string) (Record, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 7 {
		return Record{}, fmt.Errorf("want 7 fields, got %d", len(fields))
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad ts: %w", err)
	}
	kind, err := parseKind(fields[1])
	if err != nil {
		return Record{}, err
	}
	dir, err := parseDirection(fields[2])
	if err != nil {
		return Record{}, err
	}
	src, err := netip.ParseAddr(fields[3])
	if err != nil {
		return Record{}, fmt.Errorf("bad src: %w", err)
	}
	dst, err := netip.ParseAddr(fields[4])
	if err != nil {
		return Record{}, fmt.Errorf("bad dst: %w", err)
	}
	sport, err := strconv.ParseUint(fields[5], 10, 16)
	if err != nil {
		return Record{}, fmt.Errorf("bad sport: %w", err)
	}
	dport, err := strconv.ParseUint(fields[6], 10, 16)
	if err != nil {
		return Record{}, fmt.Errorf("bad dport: %w", err)
	}
	return Record{
		Ts: time.Duration(ns), Kind: kind, Dir: dir,
		Src: src, Dst: dst,
		SrcPort: uint16(sport), DstPort: uint16(dport),
	}, nil
}

func parseKind(s string) (packet.Kind, error) {
	switch s {
	case "syn":
		return packet.KindSYN, nil
	case "syn-ack":
		return packet.KindSYNACK, nil
	case "fin":
		return packet.KindFIN, nil
	case "rst":
		return packet.KindRST, nil
	case "other":
		return packet.KindOther, nil
	case "not-tcp":
		return packet.KindNotTCP, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", s)
	}
}

func parseDirection(s string) (Direction, error) {
	switch s {
	case "in":
		return DirIn, nil
	case "out":
		return DirOut, nil
	default:
		return 0, fmt.Errorf("unknown direction %q", s)
	}
}
