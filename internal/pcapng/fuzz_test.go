package pcapng

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// FuzzReader asserts the pcap reader never panics and that any capture
// it fully accepts survives a write/read round trip.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.Write(Packet{Ts: time.Second, Data: []byte{1, 2, 3}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, fileHeaderLen))
	f.Fuzz(func(t *testing.T, raw []byte) {
		pkts, err := ReadAll(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, 0)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, p := range pkts {
			if len(p.Data) > 65535 {
				continue // snaplen of the re-written capture
			}
			// Timestamps round to microseconds in the container.
			p.Ts = p.Ts.Truncate(time.Microsecond)
			if err := w.Write(p); err != nil {
				t.Fatalf("re-write failed: %v", err)
			}
			kept++
		}
		back, err := ReadAll(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != kept {
			t.Fatalf("round trip kept %d of %d packets", len(back), kept)
		}
	})
}

// FuzzReaderStreaming asserts incremental Next calls terminate and
// never return both a packet and an error.
func FuzzReaderStreaming(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 64)
	_ = w.Write(Packet{Data: []byte{9}})
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for i := 0; i < 100000; i++ {
			_, err := r.Next()
			if err == io.EOF || err != nil {
				return
			}
		}
		t.Fatal("reader did not terminate")
	})
}

// refReader is the reader Reader replaced, kept as the reference
// FuzzReaderMatchesReference holds it to: a bufio.Reader around any
// input that does not buffer itself, two io.ReadFull calls per record
// (header, then data), and the byte order read through a
// binary.ByteOrder on every field.
type refReader struct {
	r       io.Reader
	order   binary.ByteOrder
	nano    bool
	snapLen uint32
	hdr     [recordHeaderLen]byte
}

func newRefReader(r io.Reader) (*refReader, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapng: read header: %w", errTrunc(err))
	}
	rd := &refReader{r: r}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicro:
		rd.order = binary.LittleEndian
	case magicNano:
		rd.order, rd.nano = binary.LittleEndian, true
	case magicMicroSwapped:
		rd.order = binary.BigEndian
	case magicNanoSwapped:
		rd.order, rd.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	rd.snapLen = rd.order.Uint32(hdr[16:20])
	return rd, nil
}

func (r *refReader) next() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, errTrunc(err)
	}
	sec := r.order.Uint32(r.hdr[0:4])
	frac := r.order.Uint32(r.hdr[4:8])
	capLen := r.order.Uint32(r.hdr[8:12])
	if r.snapLen > 0 && capLen > r.snapLen {
		return Packet{}, fmt.Errorf("pcapng: record length %d exceeds snaplen %d", capLen, r.snapLen)
	}
	if capLen > maxRecord {
		return Packet{}, fmt.Errorf("pcapng: record length %d exceeds sanity cap", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, errTrunc(err)
	}
	ts := time.Duration(sec) * time.Second
	if r.nano {
		ts += time.Duration(frac) * time.Nanosecond
	} else {
		ts += time.Duration(frac) * time.Microsecond
	}
	return Packet{Ts: ts, Data: data}, nil
}

// pcapFile hand-builds a capture: a file header with the given magic
// (written little-endian, so a swapped magic makes a big-endian file)
// and snap length, then one record per frame, all in the file's byte
// order.
func pcapFile(magic, snapLen uint32, frames ...[]byte) []byte {
	var order binary.ByteOrder = binary.LittleEndian
	if magic == magicMicroSwapped || magic == magicNanoSwapped {
		order = binary.BigEndian
	}
	out := make([]byte, fileHeaderLen)
	binary.LittleEndian.PutUint32(out[0:4], magic)
	order.PutUint16(out[4:6], versionMajor)
	order.PutUint16(out[6:8], versionMinor)
	order.PutUint32(out[16:20], snapLen)
	order.PutUint32(out[20:24], LinkTypeRaw)
	for i, f := range frames {
		var hdr [recordHeaderLen]byte
		order.PutUint32(hdr[0:4], uint32(i))
		order.PutUint32(hdr[4:8], 999_999)
		order.PutUint32(hdr[8:12], uint32(len(f)))
		order.PutUint32(hdr[12:16], uint32(len(f)))
		out = append(append(out, hdr[:]...), f...)
	}
	return out
}

// drainPcap reads a capture to its first error with next and returns
// the packets (their data copied out) and that error's text: the
// outcome two readers must share.
func drainPcap(next func() (Packet, error)) ([]Packet, string) {
	var pkts []Packet
	for {
		p, err := next()
		if err != nil {
			return pkts, err.Error()
		}
		p.Data = append([]byte(nil), p.Data...)
		pkts = append(pkts, p)
	}
}

// FuzzReaderMatchesReference pins Reader, which decodes records in
// place in its own buffer, to the io.ReadFull reader it replaced: over
// any bytes, delivered whole or in the short reads a pipe makes, both
// yield the same packets and stop at the same error (io.EOF,
// ErrTruncated, the snaplen error or the sanity-cap error).
func FuzzReaderMatchesReference(f *testing.F) {
	frame := []byte{0x45, 0, 0, 40, 1, 2, 3}
	big := make([]byte, 65535) // with its record header, past a 64 KiB buffer
	for i := range big {
		big[i] = byte(i)
	}
	f.Add(pcapFile(magicMicro, 65535, frame, frame[:3], nil, frame))
	f.Add(pcapFile(magicMicro, 65535, frame, big, frame))
	f.Add(pcapFile(magicMicroSwapped, 65535, frame, frame))
	f.Add(pcapFile(magicNano, 0, frame, frame))
	f.Add(pcapFile(magicNanoSwapped, 4096, frame))
	f.Add(pcapFile(magicMicro, 4, frame))                        // record past the snap length
	f.Add(pcapFile(magicMicro, 65535, frame)[:fileHeaderLen+20]) // data cut short
	f.Add(pcapFile(magicMicro, 65535, frame)[:fileHeaderLen+5])  // record header cut short
	overCap := pcapFile(magicMicro, 0)
	overCap = binary.LittleEndian.AppendUint32(append(overCap, make([]byte, 8)...), maxRecord+1)
	f.Add(append(overCap, make([]byte, 4)...)) // record past the sanity cap
	f.Add([]byte{})
	f.Add(make([]byte, fileHeaderLen))
	deliveries := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data+EOF", iotest.DataErrReader},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, d := range deliveries {
			ref, refErr := newRefReader(d.wrap(bytes.NewReader(raw)))
			rd, err := NewReader(d.wrap(bytes.NewReader(raw)))
			if (refErr == nil) != (err == nil) || refErr != nil && refErr.Error() != err.Error() {
				t.Fatalf("%s: NewReader error %v, reference %v", d.name, err, refErr)
			}
			if err != nil {
				continue
			}
			want, wantErr := drainPcap(ref.next)
			got, gotErr := drainPcap(rd.NextReuse)
			if gotErr != wantErr {
				t.Fatalf("%s: stopped with %q after %d packets, reference with %q after %d",
					d.name, gotErr, len(got), wantErr, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: packets diverge from the reference", d.name)
			}
		}
	})
}
