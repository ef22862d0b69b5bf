package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/packet"
	"repro/internal/pcapng"
	"repro/internal/trace"
)

var testPrefix = netip.MustParsePrefix("130.216.0.0/16")

func captureTestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := trace.Auckland()
	p.Name = "capture-test"
	p.Span = 2 * time.Minute
	p.OutagesPerHour = 0
	tr, err := trace.Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 {
		t.Fatal("generated trace is empty")
	}
	return tr
}

func writePcapBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainSource pulls src dry one record per NextBatch call.
func drainSource(t *testing.T, src *Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	var one [1]trace.Record
	for {
		n, err := src.NextBatch(one[:])
		out = append(out, one[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// newPcapSource builds a blocking Source over an in-memory pcap.
func newPcapSource(t *testing.T, data []byte, cfg Config) *Source {
	t.Helper()
	fr, err := NewPcapReader(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StubPrefix == (netip.Prefix{}) {
		cfg.StubPrefix = testPrefix
	}
	src, err := NewSource(fr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestPcapSourceMatchesPcapStream is the package-level half of the
// equivalence suite: the capture path over a pcap byte-stream must
// yield exactly the record sequence and span the offline
// trace.PcapStream decoder yields for the same bytes.
func TestPcapSourceMatchesPcapStream(t *testing.T) {
	tr := captureTestTrace(t)
	data := writePcapBytes(t, tr)

	s, err := trace.NewPcapStream(bytes.NewReader(data), testPrefix)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Record
	buf := make([]trace.Record, 256)
	for {
		n, err := s.NextBatch(buf)
		want = append(want, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	src := newPcapSource(t, data, Config{})
	defer src.Close()
	got := drainSource(t, src)

	if len(got) != len(want) {
		t.Fatalf("capture yielded %d records, pcap stream %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: capture %+v != stream %+v", i, got[i], want[i])
		}
	}
	if src.Span() != s.Span() {
		t.Errorf("capture span = %v, stream span = %v", src.Span(), s.Span())
	}
	st := src.Stats()
	if st.Parsed != uint64(len(got)) {
		t.Errorf("Parsed = %d, want %d", st.Parsed, len(got))
	}
	if st.Frames != st.Parsed+st.Skipped {
		t.Errorf("Frames = %d, Parsed+Skipped = %d", st.Frames, st.Parsed+st.Skipped)
	}
	if st.RingDropped != 0 || src.Dropped() != 0 {
		t.Errorf("blocking source dropped records: %+v", st)
	}
	if n, err := src.NextBatch(buf); n != 0 || err != io.EOF {
		t.Errorf("NextBatch past EOF = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestEthernetVLANAgree pins the frame parser against the offline
// decoder on Ethernet and VLAN-tagged framings of the same packets.
func TestEthernetVLANAgree(t *testing.T) {
	tr := captureTestTrace(t)
	raw := writePcapBytes(t, tr)
	rawSrc := newPcapSource(t, raw, Config{})
	defer rawSrc.Close()
	want := drainSource(t, rawSrc)

	for _, tc := range []struct {
		name string
		tags []uint16
	}{
		{"plain ethernet", nil},
		{"802.1q", []uint16{0x8100}},
		{"qinq", []uint16{0x88a8, 0x8100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newPcapSource(t, writeEthernetPcap(t, tr, tc.tags), Config{})
			defer src.Close()
			got := drainSource(t, src)
			if len(got) != len(want) {
				t.Fatalf("ethernet capture yielded %d records, raw %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: ethernet %+v != raw %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// writeEthernetPcap writes tr as a LINKTYPE_ETHERNET capture, wrapping
// each IPv4 packet in a MAC header plus the given VLAN tag TPIDs (the
// same shape internal/trace's stream tests use).
func writeEthernetPcap(t *testing.T, tr *trace.Trace, tags []uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw, err := pcapng.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var segBuf []byte
	for _, r := range tr.Records {
		flags, ok := recordFlags(r.Kind)
		if !ok {
			continue
		}
		seg := packet.Build(r.Src, r.Dst, r.SrcPort, r.DstPort, 0, 0, flags)
		segBuf = seg.Marshal(segBuf[:0])
		frame := make([]byte, 0, 14+4*len(tags)+len(segBuf))
		frame = append(frame, make([]byte, 12)...)
		for _, tag := range tags {
			frame = append(frame, byte(tag>>8), byte(tag), 0x00, 0x05)
		}
		frame = append(frame, 0x08, 0x00)
		frame = append(frame, segBuf...)
		if err := pw.Write(pcapng.Packet{Ts: r.Ts, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	data[20] = 1 // patch file header link type raw(101) → ethernet(1)
	return data
}

func recordFlags(k packet.Kind) (uint8, bool) {
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

// TestNextBatchMatchesNext pins chunked reads against one-record
// reads, over rings of one slot, of three (not a power of two, so the
// ring wraps every few records) and of the default size.
func TestNextBatchMatchesNext(t *testing.T) {
	tr := captureTestTrace(t)
	data := writePcapBytes(t, tr)

	for _, ring := range []int{1, 3, DefaultRing} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			one := newPcapSource(t, data, Config{Ring: ring})
			defer one.Close()
			want := drainSource(t, one)

			batched := newPcapSource(t, data, Config{Ring: ring})
			defer batched.Close()
			var got []trace.Record
			buf := make([]trace.Record, 64)
			for {
				n, err := batched.NextBatch(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("batched yielded %d records, single %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: batched %+v != single %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestPipelineOverFilledRing runs ingest.Pipeline over a source whose
// producer has already filled its ring. The pipeline bounds its
// aggregator by the span it samples at start, so that span must not be
// the producer's read-ahead: the reports must equal ingest.Open's on
// the same file.
func TestPipelineOverFilledRing(t *testing.T) {
	tr := captureTestTrace(t)
	data := writePcapBytes(t, tr)
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(src ingest.Source) []core.Report {
		t.Helper()
		agent, err := core.NewAgent(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := &ingest.Pipeline{Source: src, Detector: agent, T0: core.DefaultObservationPeriod}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return agent.Reports()
	}
	file, _, err := ingest.Open(path, testPrefix)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := run(file)

	const ring = 64
	src := newPcapSource(t, data, Config{Ring: ring})
	defer src.Close()
	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Parsed <= ring {
		if time.Now().After(deadline) {
			t.Fatalf("producer never filled the ring: %+v", src.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	got := run(src)
	if len(got) != len(want) {
		t.Fatalf("capture run closed %d periods, ingest.Open %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("report %d: capture %+v != ingest.Open %+v", i, got[i], want[i])
		}
	}
}

// stubReader is an in-memory FrameReader over raw IPv4 frames.
type stubReader struct {
	frames [][]byte
	pos    int
	block  chan struct{} // when non-nil, ReadFrame blocks here after the frames run out
	closed chan struct{}
	err    error // returned after the frames run out (nil → io.EOF)
}

func newStubReader(frames [][]byte) *stubReader {
	return &stubReader{frames: frames, closed: make(chan struct{})}
}

func (r *stubReader) ReadFrame() (Frame, error) {
	if r.pos < len(r.frames) {
		f := Frame{Ts: time.Duration(r.pos) * time.Millisecond, Data: r.frames[r.pos]}
		r.pos++
		return f, nil
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-r.closed:
		}
		return Frame{}, io.EOF
	}
	if r.err != nil {
		return Frame{}, r.err
	}
	return Frame{}, io.EOF
}

func (r *stubReader) LinkType() uint32 { return pcapng.LinkTypeRaw }
func (r *stubReader) Drops() uint64    { return 7 } // fixed kernel-drop stat for Stats plumbing
func (r *stubReader) Close() error {
	select {
	case <-r.closed:
	default:
		close(r.closed)
	}
	return nil
}

func stubFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("130.216.0.9")
	frames := make([][]byte, n)
	for i := range frames {
		seg := packet.Build(src, dst, uint16(1000+i), 80, 0, 0, packet.FlagSYN)
		frames[i] = seg.Marshal(nil)
	}
	return frames
}

// TestDropModeAccounting pins the DropCounter contract: a drop-mode
// source sheds records when its ring is full and counts every one —
// drained + Dropped always equals Parsed, whether the consumer stays
// idle until the producer is done or drains while it runs.
func TestDropModeAccounting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames int
		idle   bool
	}{
		{"idle consumer", 100, true},
		{"draining consumer", 20000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := NewSource(newStubReader(stubFrames(t, tc.frames)), Config{
				StubPrefix: testPrefix,
				Ring:       8,
				Drop:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()

			if tc.idle {
				// Wait for the producer to finish without consuming
				// anything: in drop mode it never blocks.
				deadline := time.Now().Add(5 * time.Second)
				for src.Stats().Frames < uint64(tc.frames) {
					if time.Now().After(deadline) {
						t.Fatalf("producer stalled: %+v", src.Stats())
					}
					time.Sleep(time.Millisecond)
				}
			}

			got := drainSource(t, src)
			st := src.Stats()
			if st.Parsed != uint64(tc.frames) {
				t.Fatalf("Parsed = %d, want %d", st.Parsed, tc.frames)
			}
			if uint64(len(got))+src.Dropped() != st.Parsed {
				t.Errorf("drained %d + dropped %d != parsed %d", len(got), src.Dropped(), st.Parsed)
			}
			if tc.idle && src.Dropped() == 0 {
				t.Errorf("expected drops with ring 8 and %d records", tc.frames)
			}
			if st.RingDropped != src.Dropped() {
				t.Errorf("Stats.RingDropped = %d, Dropped() = %d", st.RingDropped, src.Dropped())
			}
			if st.KernelDropped != 7 {
				t.Errorf("KernelDropped = %d, want the reader's 7", st.KernelDropped)
			}
		})
	}
}

// TestCloseUnblocksFullRing: a blocking producer stuck on a full ring
// must exit when Close is called, and records already ringed stay
// readable through EOF.
func TestCloseUnblocksFullRing(t *testing.T) {
	src, err := NewSource(newStubReader(stubFrames(t, 100)), Config{
		StubPrefix: testPrefix,
		Ring:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give the producer time to fill the ring and block.
	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Parsed < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("producer never filled the ring: %+v", src.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { src.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked against a blocked producer")
	}
	if got := drainSource(t, src); len(got) == 0 {
		t.Error("ringed records lost on Close")
	}
}

// TestCloseUnblocksBlockedRead: a reader that yields k frames and then
// blocks must not hold those records back — NextBatch hands all k over
// while the producer waits in ReadFrame — and Close must unblock both
// that read and a consumer parked in NextBatch, which returns io.EOF.
// The pcap case is live:pcap: over a FIFO on a quiet link: the pipe
// has carried the file header and k records and stays open, so a
// reader that waited to fill its buffer would never hand them over.
func TestCloseUnblocksBlockedRead(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name string
		open func(t *testing.T) FrameReader
	}{
		{"stub", func(t *testing.T) FrameReader {
			r := newStubReader(stubFrames(t, k))
			r.block = make(chan struct{})
			return r
		}},
		{"pcap pipe", func(t *testing.T) FrameReader { return pipePcapReader(t, stubFrames(t, k)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := NewSource(tc.open(t), Config{StubPrefix: testPrefix})
			if err != nil {
				t.Fatal(err)
			}
			type batch struct {
				n   int
				err error
			}
			// Buffered past anything the consumer can send, so it never
			// blocks on a test that has already failed.
			batches := make(chan batch, k+1)
			go func() {
				buf := make([]trace.Record, 64)
				for {
					n, err := src.NextBatch(buf)
					batches <- batch{n, err}
					if err != nil {
						return
					}
				}
			}()
			next := func() batch {
				t.Helper()
				select {
				case b := <-batches:
					return b
				case <-time.After(5 * time.Second):
					t.Fatal("NextBatch is still blocked")
					return batch{}
				}
			}
			for got := 0; got < k; {
				b := next()
				if b.err != nil {
					t.Fatalf("NextBatch after %d of %d records: %v", got, k, b.err)
				}
				got += b.n
			}

			done := make(chan struct{})
			go func() { src.Close(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Close deadlocked against a blocked ReadFrame")
			}
			if b := next(); b.n != 0 || b.err != io.EOF {
				t.Errorf("parked NextBatch after Close = (%d, %v), want (0, io.EOF)", b.n, b.err)
			}
		})
	}
}

// pipePcapReader is a PcapReader over an io.Pipe whose writer sends the
// pcap file header and one record per frame, then holds the pipe open
// until the test ends.
func pipePcapReader(t *testing.T, frames [][]byte) *PcapReader {
	t.Helper()
	pr, pw := io.Pipe()
	hold, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		w, err := pcapng.NewWriter(pw, 0)
		for i := 0; err == nil && i < len(frames); i++ {
			err = w.Write(pcapng.Packet{Ts: time.Duration(i) * time.Millisecond, Data: frames[i]})
		}
		if err == nil {
			<-hold
		}
		pw.Close()
	}()
	t.Cleanup(func() {
		pr.Close()
		close(hold)
		<-done
	})
	// The file header arrives like any record: a reader that waits for
	// more than it needs blocks here, so the open runs under the same
	// deadline (the cleanup's pr.Close releases it).
	type opened struct {
		fr  *PcapReader
		err error
	}
	ch := make(chan opened, 1)
	go func() {
		fr, err := NewPcapReader(pr, pr)
		ch <- opened{fr, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.fr
	case <-time.After(5 * time.Second):
		t.Fatal("NewPcapReader is still blocked on the file header")
		return nil
	}
}

// TestReaderErrorSurfaced: a mid-stream reader failure reaches the
// consumer after the ring drains, instead of masquerading as EOF.
func TestReaderErrorSurfaced(t *testing.T) {
	boom := errors.New("capture handle fell over")
	r := newStubReader(stubFrames(t, 3))
	r.err = boom
	src, err := NewSource(r, Config{StubPrefix: testPrefix})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var got int
	var one [1]trace.Record
	for {
		n, err := src.NextBatch(one[:])
		got += n
		if err == nil {
			continue
		}
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
		break
	}
	if got != 3 {
		t.Errorf("drained %d records before the error, want 3", got)
	}
}

// TestRebase: rebased timestamps start at zero and preserve spacing.
func TestRebase(t *testing.T) {
	frames := stubFrames(t, 3)
	src, err := NewSource(newStubReader(frames), Config{
		StubPrefix: testPrefix,
		Rebase:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drainSource(t, src)
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	for i, rec := range got {
		if want := time.Duration(i) * time.Millisecond; rec.Ts != want {
			t.Errorf("record %d Ts = %v, want %v", i, rec.Ts, want)
		}
	}
	if src.Span() != 2*time.Millisecond+1 {
		t.Errorf("span = %v, want %v", src.Span(), 2*time.Millisecond+1)
	}
}

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource(nil, Config{StubPrefix: testPrefix}); err == nil {
		t.Error("want error for nil reader")
	}
	if _, err := NewSource(newStubReader(nil), Config{}); err == nil {
		t.Error("want error for missing stub prefix")
	}
	if _, err := trace.NewFrameParser(147, testPrefix); err == nil {
		t.Error("want error for unsupported link type")
	}
}

func TestPcapReaderRejectsUnknownLink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := pcapng.NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[20] = 147
	if _, err := NewPcapReader(bytes.NewReader(data), nil); err == nil {
		t.Fatal("want error for unsupported link type")
	}
}
