package ingest

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Info describes what a source knows about its container up front.
type Info struct {
	// Name is the trace name (header-carried or the file path).
	Name string
	// Span is the capture span; 0 when only known at EOF (pcap,
	// tcpdump text).
	Span time.Duration
	// Records is the record count; -1 when unknown up front.
	Records int
}

// TraceSource streams an in-memory trace — the adapter that keeps
// materialized traces (generated, merged or clipped ones) on the
// pipeline path.
type TraceSource struct {
	tr  *trace.Trace
	pos int
}

// NewTraceSource wraps an in-memory trace.
func NewTraceSource(tr *trace.Trace) *TraceSource {
	return &TraceSource{tr: tr}
}

// NextBatch copies up to len(buf) records into buf. For an in-memory
// trace a batch is a single copy, so the per-record cost of the batch
// pipeline over this source is pure memmove.
func (s *TraceSource) NextBatch(buf []trace.Record) (int, error) {
	if s.pos >= len(s.tr.Records) {
		return 0, io.EOF
	}
	n := copy(buf, s.tr.Records[s.pos:])
	s.pos += n
	if s.pos >= len(s.tr.Records) {
		return n, io.EOF
	}
	return n, nil
}

// Span returns the trace's declared span.
func (s *TraceSource) Span() time.Duration { return s.tr.Span }

// Name returns the trace's name.
func (s *TraceSource) Name() string { return s.tr.Name }

// Close implements Source.
func (s *TraceSource) Close() error { return nil }

// ChanSource is the live source: a bounded single-producer/
// single-consumer record ring between one goroutine that Sends records
// (a netsim router tap, the capture loop) and the pipeline goroutine
// that consumes them. Send publishes each record with one atomic store
// and NextBatch copies everything already published, so a busy feed
// fills whole chunks while an idle one hands each record over as soon
// as it is sent. The consumer parks only on an empty ring, a blocking
// producer only on a full one.
//
// By default Send blocks once the ring fills — natural backpressure
// against a slow consumer. In drop mode (NewChanSourceDrop) a full ring
// sheds the record instead and counts it, the right policy for a live
// capture feed where blocking the capture path loses ground truth
// anyway; the count is surfaced through Dropped so the loss is never
// silent.
//
// The ring has exactly one producer and one consumer: Send, Tap's
// function and CloseSend must all be called from one goroutine, and
// NextBatch from one other (or the same) goroutine — a second sender
// is a data race. Dropped and Close are safe from any goroutine.
type ChanSource struct {
	buf   []trace.Record
	drop  bool
	ready parker // the consumer, waiting for a record or CloseSend
	space parker // a blocking producer, waiting for a free slot or Close

	// Producer side. The padding keeps the two sides' hot fields on
	// separate cache lines, so a publish does not invalidate the
	// consumer's position and vice versa.
	_        [64]byte
	tail     atomic.Uint64 // records published
	wpos     int           // slot of the next publish
	headSeen uint64        // consumer position as last loaded

	_    [64]byte
	head atomic.Uint64 // records consumed
	rpos int           // slot of the next record to consume

	_       [64]byte
	dropped atomic.Uint64 // written by the producer only
	sendEnd atomic.Bool   // CloseSend: no record follows tail
	recvEnd atomic.Bool   // Close: the consumer has stopped listening
}

// NewChanSource builds a live source buffering up to buf records.
// Sends block when the buffer is full.
func NewChanSource(buf int) *ChanSource {
	return newChanSource(buf, false)
}

// NewChanSourceDrop builds a live source buffering up to buf records
// that sheds (and counts) records instead of blocking when the buffer
// overruns.
func NewChanSourceDrop(buf int) *ChanSource {
	return newChanSource(buf, true)
}

func newChanSource(buf int, drop bool) *ChanSource {
	return &ChanSource{
		buf:   make([]trace.Record, max(buf, 1)),
		drop:  drop,
		ready: parker{wake: make(chan struct{}, 1)},
		space: parker{wake: make(chan struct{}, 1)},
	}
}

// Send delivers one record to the consumer. On a full ring it blocks
// until the consumer frees a slot or calls Close; in drop mode it
// discards the record and bumps the drop counter instead. After Close,
// a record that finds the ring full is discarded.
func (s *ChanSource) Send(r trace.Record) {
	t := s.tail.Load()
	if t-s.headSeen == uint64(len(s.buf)) && !s.reserve(t) {
		return
	}
	s.buf[s.wpos] = r
	if s.wpos++; s.wpos == len(s.buf) {
		s.wpos = 0
	}
	s.tail.Store(t + 1)
	s.ready.unpark()
}

// reserve is Send's path when the ring looked full at the last loaded
// consumer position: it reloads that position and, if the ring really
// is full, sheds the record or parks until a slot frees. It reports
// whether the record may be stored.
func (s *ChanSource) reserve(t uint64) bool {
	free := func() bool {
		s.headSeen = s.head.Load()
		return t-s.headSeen < uint64(len(s.buf))
	}
	for !free() {
		if s.drop {
			s.dropped.Store(s.dropped.Load() + 1)
			return false
		}
		if s.recvEnd.Load() {
			return false
		}
		s.space.park(func() bool { return free() || s.recvEnd.Load() })
	}
	return true
}

// Dropped reports how many records Send has shed because the buffer
// was full. Always 0 outside drop mode. ChanSource implements
// DropCounter so the daemon can export the count in /metrics.
func (s *ChanSource) Dropped() uint64 { return s.dropped.Load() }

// CloseSend marks the end of the stream; the consuming pipeline's
// NextBatch returns io.EOF once the buffer drains.
func (s *ChanSource) CloseSend() {
	s.sendEnd.Store(true)
	s.ready.unpark()
}

// Tap adapts the source to a netsim router tap, classifying each
// forwarded segment into a record — the live-capture edge of the
// pipeline.
func (s *ChanSource) Tap() netsim.Tap {
	return func(now time.Duration, dir netsim.Direction, seg *packet.Segment) {
		d := trace.DirIn
		if dir == netsim.Outbound {
			d = trace.DirOut
		}
		s.Send(trace.Record{
			Ts:      now,
			Kind:    seg.Kind(),
			Dir:     d,
			Src:     seg.IP.Src,
			Dst:     seg.IP.Dst,
			SrcPort: seg.TCP.SrcPort,
			DstPort: seg.TCP.DstPort,
		})
	}
}

// NextBatch blocks until at least one record is published, then copies
// every published record that fits into buf. It returns io.EOF, with
// no records, once CloseSend has been called and the ring is drained.
func (s *ChanSource) NextBatch(buf []trace.Record) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	h := s.head.Load()
	t := s.tail.Load()
	for t == h {
		if s.sendEnd.Load() {
			// CloseSend follows the last publish, so this load sees
			// every record there will ever be.
			if t = s.tail.Load(); t == h {
				return 0, io.EOF
			}
			break
		}
		s.ready.park(func() bool { return s.tail.Load() != h || s.sendEnd.Load() })
		t = s.tail.Load()
	}
	n := int(min(t-h, uint64(len(buf))))
	k := copy(buf[:n], s.buf[s.rpos:])
	copy(buf[k:n], s.buf)
	if s.rpos += n; s.rpos >= len(s.buf) {
		s.rpos -= len(s.buf)
	}
	s.head.Store(h + uint64(n))
	s.space.unpark()
	return n, nil
}

// Close is the consumer's side of shutdown: a producer parked on a full
// ring is released, and from then on Send never blocks (a record that
// finds the ring full is discarded). Records already published stay
// readable; the producer still ends the stream with CloseSend.
func (s *ChanSource) Close() error {
	s.recvEnd.Store(true)
	s.space.unpark()
	return nil
}

// parker lets one goroutine sleep until another signals it. The waker
// pays one atomic load when nobody sleeps, and at most one token is
// ever in flight: only the waker that clears the parked flag sends.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: the one token in flight
}

// park blocks until a wake, unless ready already holds once the parked
// flag is up. The waker sets the state ready tests before it calls
// unpark, and every one of these accesses is sequentially consistent,
// so either ready sees that state or unpark sees the flag: no wake is
// lost. When ready holds but a waker has already cleared the flag, its
// token is on the way and park takes it, so none is left over. Callers
// re-check their condition after park returns.
func (p *parker) park(ready func() bool) {
	p.parked.Store(true)
	if ready() && p.parked.Swap(false) {
		return
	}
	<-p.wake
}

// unpark wakes the parked goroutine, if any.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.Swap(false) {
		p.wake <- struct{}{}
	}
}

// binarySource, csvSource, pcapSource and tcpdumpSource bind the trace
// streams to their file handles.
type binarySource struct {
	*trace.BinaryStream
	c io.Closer
}

func (s *binarySource) Close() error { return closeAll(s.c) }

type csvSource struct {
	*trace.CSVStream
	c io.Closer
}

func (s *csvSource) Close() error { return closeAll(s.c) }

type pcapSource struct {
	*trace.PcapStream
	c io.Closer
}

func (s *pcapSource) Close() error { return closeAll(s.c) }

type tcpdumpSource struct {
	*trace.TcpdumpStream
	c io.Closer
}

func (s *tcpdumpSource) Close() error { return closeAll(s.c) }

// Open opens a capture file as a streaming Source, picking the codec
// from the extension by the rules trace.Save writes by, plus tcpdump
// text, which Save refuses:
//
//	.csv         text
//	.pcap        libpcap (needs stubPrefix)
//	.txt/.dump   tcpdump text (needs stubPrefix)
//	other        binary (.trace, .bin)
//	any + .gz    gzip-wrapped version of the inner extension
//
// Every format streams: no source holds more than its decoder's buffer
// and the caller's chunk. The returned Info reports what is known up
// front; zero Span means the source learns it at EOF. The caller must
// Close the source.
func Open(path string, stubPrefix netip.Prefix) (Source, Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Info{}, err
	}
	src, info, err := openReader(f, f, path, stubPrefix)
	if err != nil {
		f.Close()
		return nil, Info{}, err
	}
	return src, info, nil
}

// openReader builds the source for path's extension over r, with c
// owning the underlying handles.
func openReader(r io.Reader, c io.Closer, path string, stubPrefix netip.Prefix) (Source, Info, error) {
	name := path
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, Info{}, fmt.Errorf("ingest: gzip %s: %w", path, err)
		}
		r = gz
		c = multiCloser{gz, c}
		name = strings.TrimSuffix(path, ".gz")
	}

	switch {
	case strings.HasSuffix(name, ".csv"):
		return &csvSource{CSVStream: trace.NewCSVStream(r), c: c}, Info{Name: path, Records: -1}, nil
	case strings.HasSuffix(name, ".pcap"):
		if !stubPrefix.IsValid() {
			return nil, Info{}, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		s, err := trace.NewPcapStream(r, stubPrefix)
		if err != nil {
			return nil, Info{}, err
		}
		return &pcapSource{PcapStream: s, c: c}, Info{Name: path, Records: -1}, nil
	case strings.HasSuffix(name, ".txt"), strings.HasSuffix(name, ".dump"):
		if !stubPrefix.IsValid() {
			return nil, Info{}, fmt.Errorf("trace: %s needs a stub prefix for direction inference", path)
		}
		return &tcpdumpSource{TcpdumpStream: trace.NewTcpdumpStream(r, stubPrefix), c: c},
			Info{Name: path, Records: -1}, nil
	default:
		s, err := trace.NewBinaryStream(r)
		if err != nil {
			return nil, Info{}, err
		}
		return &binarySource{BinaryStream: s, c: c},
			Info{Name: s.Name(), Span: s.Span(), Records: int(s.Count())}, nil
	}
}

// Scan reads path once through Open, in O(1) memory, and returns its
// name, span and record count — how the daemon sizes a replay (total
// periods, progress denominators) and refuses a bad file before it
// re-opens the file for the run. The name is the container's
// (NamedSource, read at EOF) or else the path; the span is the
// source's at EOF.
//
// Scan refuses exactly what trace.Validate refuses of the whole trace:
// records out of timestamp order (trace.ErrUnsorted) or outside
// [0, span). Each chunk goes through Validate behind the previous
// chunk's last record, so order holds across chunk boundaries too.
// The span is final only at EOF (a CSV header may come late; pcap and
// tcpdump text learn it from the last record), so it is checked then,
// on the last record: in a sorted stream, a record past the span puts
// the last one past it as well.
func Scan(path string, stubPrefix netip.Prefix) (Info, error) {
	src, info, err := Open(path, stubPrefix)
	if err != nil {
		return Info{}, err
	}
	defer src.Close()
	// Chunks decode into buf[1:]; buf[0] keeps the previous chunk's
	// last record in front of the next one.
	buf := make([]trace.Record, 1+DefaultChunk)
	n := 0
	for {
		k, err := src.NextBatch(buf[1:])
		if err != nil && err != io.EOF {
			return Info{}, err
		}
		if k > 0 {
			win, first := buf[1:1+k], n
			if n > 0 {
				win, first = buf[:1+k], n-1
			}
			if verr := (&trace.Trace{Records: win}).Validate(); verr != nil {
				return Info{}, fmt.Errorf("trace: %s: records from #%d: %w", path, first, verr)
			}
			buf[0] = buf[k]
			n += k
		}
		if err == io.EOF {
			break
		}
	}
	if ss, ok := src.(SpanSource); ok {
		info.Span = ss.Span()
	}
	if n > 0 {
		if verr := (&trace.Trace{Span: info.Span, Records: buf[:1]}).Validate(); verr != nil {
			return Info{}, fmt.Errorf("trace: %s: last record #%d: %w", path, n-1, verr)
		}
	}
	info.Name = path
	if ns, ok := src.(NamedSource); ok {
		info.Name = ns.Name()
	}
	info.Records = n
	return info, nil
}

// multiCloser closes a chain of wrapped readers in order.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeAll(c io.Closer) error {
	if c == nil {
		return nil
	}
	return c.Close()
}
