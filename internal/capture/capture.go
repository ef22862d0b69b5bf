// Package capture is the live edge of the ingest pipeline: it turns
// captured link-layer frames — from an AF_PACKET socket on Linux
// (build tag "live") or from any pcap byte-stream (file, pipe, FIFO) —
// into trace.Record streams the rest of the system already speaks.
//
// The package is built from two pieces around one shared decoder:
//
//   - FrameReader abstracts where frames come from: PcapReader wraps
//     any pcap byte-stream; the AF_PACKET reader (afpacket_linux.go,
//     behind "linux && live") reads a real interface.
//   - Source runs a producer goroutine that decodes frames with
//     trace.FrameParser — the same decoder the offline pcap path
//     calls, so a capture replayed live is bit-identical to the same
//     capture replayed through ingest.Open — into a bounded
//     ring of records (an ingest.ChanSource, the same
//     single-producer/single-consumer ring simulator taps feed). The
//     consumer side implements ingest.Source. In blocking mode (the
//     default) a full ring backpressures the reader — lossless, right
//     for pipes and replays. In drop mode a full ring sheds the record
//     and counts it (the ingest.DropCounter contract): a NIC cannot be
//     backpressured, so blocking the capture path would only move the
//     loss into the kernel where it is harder to see.
//
// Every loss is accounted: ring drops (Dropped, Stats.RingDropped),
// kernel-side drops (Stats.KernelDropped, from PACKET_STATISTICS when
// the AF_PACKET reader is active) and parser skips (Stats.Skipped)
// surface through the daemon's /status and the syndog_capture_*
// metrics.
package capture

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/pcapng"
	"repro/internal/trace"
)

// Frame is one captured link-layer frame. Data is only valid until the
// next ReadFrame call (readers reuse their buffers, like
// pcapng.Reader.NextReuse).
type Frame struct {
	Ts   time.Duration
	Data []byte
}

// FrameReader supplies raw frames to a Source. Read returns io.EOF at
// a clean end of stream; Close must unblock a concurrently blocked
// ReadFrame (the Source's shutdown path depends on it).
type FrameReader interface {
	// ReadFrame returns the next frame, reusing an internal buffer.
	ReadFrame() (Frame, error)
	// LinkType is the pcap link type of the frames (LinkTypeRaw or
	// LinkTypeEthernet).
	LinkType() uint32
	// Drops reports frames the capture handle itself lost (kernel
	// buffer overruns); 0 for byte-stream readers.
	Drops() uint64
	// Close releases the handle and unblocks a pending ReadFrame.
	Close() error
}

// PcapReader is the portable FrameReader: it reads classic libpcap
// bytes from any io.Reader — a capture file, a FIFO fed by
// `tcpdump -w -`, a network pipe — one frame at a time in O(1) memory.
type PcapReader struct {
	pr *pcapng.Reader
	c  io.Closer
}

// NewPcapReader parses the pcap file header from r and returns a
// reader over its frames. c, when non-nil, is closed by Close and must
// unblock a pending read on r (an *os.File qualifies).
func NewPcapReader(r io.Reader, c io.Closer) (*PcapReader, error) {
	pr, err := pcapng.NewReader(r)
	if err != nil {
		return nil, err
	}
	switch pr.LinkType() {
	case pcapng.LinkTypeRaw, pcapng.LinkTypeEthernet:
	default:
		return nil, errors.New("capture: unsupported pcap link type")
	}
	return &PcapReader{pr: pr, c: c}, nil
}

// ReadFrame returns the next frame; its Data aliases an internal
// buffer overwritten by the next call.
func (p *PcapReader) ReadFrame() (Frame, error) {
	pkt, err := p.pr.NextReuse()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Ts: pkt.Ts, Data: pkt.Data}, nil
}

// LinkType returns the capture's link type.
func (p *PcapReader) LinkType() uint32 { return p.pr.LinkType() }

// Drops implements FrameReader; a byte stream loses nothing itself.
func (p *PcapReader) Drops() uint64 { return 0 }

// Close closes the underlying handle, if the reader owns one.
func (p *PcapReader) Close() error {
	if p.c == nil {
		return nil
	}
	return p.c.Close()
}

// Stats is a point-in-time snapshot of a Source's accounting.
type Stats struct {
	// Frames counts frames read from the capture handle: Parsed +
	// Skipped.
	Frames uint64
	// Parsed counts frames that decoded into records.
	Parsed uint64
	// Skipped counts frames the parser rejected (non-IPv4, non-TCP,
	// malformed).
	Skipped uint64
	// RingDropped counts records shed because the ring was full (drop
	// mode only) — the backpressure loss Dropped also reports.
	RingDropped uint64
	// KernelDropped counts frames the capture handle itself lost
	// before this process saw them (AF_PACKET kernel buffer overruns).
	KernelDropped uint64
}

// DefaultRing is the default ring capacity in records.
const DefaultRing = 4096

// Config parameterizes a Source.
type Config struct {
	// StubPrefix drives direction inference (required).
	StubPrefix netip.Prefix
	// Ring is the record ring capacity; 0 takes DefaultRing.
	Ring int
	// Drop sheds records (counting them) instead of blocking the
	// producer when the ring is full. Off, the reader is backpressured
	// — lossless, the right mode for pipes and replays. On is the
	// right mode for an interface: the NIC cannot be paused.
	Drop bool
	// Rebase shifts timestamps so the first frame is t=0 — what a
	// detector watching a live interface wants (AF_PACKET timestamps
	// are an arbitrary monotonic epoch). Leave off for pcap replay,
	// where the capture's own timeline must be preserved bit-exactly.
	Rebase bool
	// Name labels the source in reports (default "live").
	Name string
}

// Source adapts a FrameReader to the ingest pipeline: a producer
// goroutine parses frames and publishes each record into a bounded
// ingest.ChanSource ring; NextBatch consumes it. It implements
// ingest.Source, ingest.SpanSource, ingest.NamedSource and
// ingest.DropCounter.
type Source struct {
	fr     FrameReader
	parser trace.FrameParser
	ring   *ingest.ChanSource
	wg     sync.WaitGroup
	once   sync.Once
	stop   atomic.Bool // set by Close

	name   string
	rebase bool

	// Written only by the producer, which stores its running counts
	// (no read-modify-write).
	parsed      atomic.Uint64
	skipped     atomic.Uint64
	span        atomic.Int64  // lastTs+1, stored at producer exit
	kernelFinal atomic.Uint64 // reader drops latched at producer exit
	readerDone  atomic.Bool

	// readErr is a non-EOF reader failure. The producer writes it
	// before it closes the ring, so the consumer may read it once the
	// ring has reported io.EOF.
	readErr error

	closeErr error
}

// NewSource wraps a FrameReader and starts the producer goroutine. The
// Source owns the reader: Close stops the producer and closes it.
func NewSource(fr FrameReader, cfg Config) (*Source, error) {
	if fr == nil {
		return nil, errors.New("capture: nil frame reader")
	}
	if !cfg.StubPrefix.IsValid() {
		return nil, errors.New("capture: source needs a stub prefix for direction inference")
	}
	parser, err := trace.NewFrameParser(fr.LinkType(), cfg.StubPrefix)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring <= 0 {
		ring = DefaultRing
	}
	name := cfg.Name
	if name == "" {
		name = "live"
	}
	newRing := ingest.NewChanSource
	if cfg.Drop {
		newRing = ingest.NewChanSourceDrop
	}
	s := &Source{
		fr:     fr,
		parser: parser,
		ring:   newRing(ring),
		name:   name,
		rebase: cfg.Rebase,
	}
	s.wg.Add(1)
	go s.produce()
	return s, nil
}

// Open opens a live input as a Source named after it — the one opener
// syndog and syndogd share. Two forms:
//
//	live:pcap:PATH — PATH is a classic pcap byte-stream (a capture file
//	    or a FIFO fed by `tcpdump -w -`) read in blocking mode, which
//	    keeps the path lossless — a pipe backpressures naturally — and
//	    so makes replaying a capture file through it bit-identical to
//	    the offline .pcap path.
//	live:IFACE — an AF_PACKET socket on IFACE (linux, build tag
//	    "live", CAP_NET_RAW), in drop mode with rebased timestamps: a
//	    NIC cannot be paused, so a full ring sheds records and counts
//	    them rather than pushing the loss into the kernel.
func Open(input string, prefix netip.Prefix) (*Source, error) {
	rest, ok := strings.CutPrefix(input, "live:")
	if !ok {
		return nil, fmt.Errorf("capture: %q is not a live: input", input)
	}
	cfg := Config{StubPrefix: prefix, Name: input}
	var fr FrameReader
	if path, isPcap := strings.CutPrefix(rest, "pcap:"); isPcap {
		if path == "" {
			return nil, errors.New("capture: live:pcap: needs a path (file or FIFO)")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if fr, err = NewPcapReader(f, f); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		var err error
		if fr, err = NewAFPacketReader(rest, 0); err != nil {
			return nil, err
		}
		cfg.Drop, cfg.Rebase = true, true
	}
	src, err := NewSource(fr, cfg)
	if err != nil {
		fr.Close()
		return nil, err
	}
	return src, nil
}

// produce is the capture loop: read, parse, publish. It is the ring's
// only sender and closes it on exit, so consumers always see a clean
// end of stream.
func (s *Source) produce() {
	defer s.wg.Done()
	var (
		parsed, skipped uint64
		base, maxTs     time.Duration
		baseSet         bool
		rec             trace.Record
	)
	defer func() {
		// Span covers classified records only, exactly like the
		// offline pcap stream: skipped frames never extend it.
		if parsed > 0 {
			s.span.Store(int64(maxTs) + 1)
		}
		s.kernelFinal.Store(s.fr.Drops())
		s.readerDone.Store(true)
		s.ring.CloseSend()
	}()
	for !s.stop.Load() {
		f, err := s.fr.ReadFrame()
		if err != nil {
			// A read failure after Close is just the shutdown
			// unblocking the reader, not a capture error.
			if err != io.EOF && !s.stop.Load() {
				s.readErr = err
			}
			return
		}
		ts := f.Ts
		if s.rebase {
			if !baseSet {
				base, baseSet = ts, true
			}
			ts -= base
			if ts < 0 {
				ts = 0 // non-monotonic capture clock; clamp, never go negative
			}
		}
		if !s.parser.Parse(ts, f.Data, &rec) {
			skipped++
			s.skipped.Store(skipped)
			continue
		}
		if parsed == 0 || ts > maxTs {
			maxTs = ts
		}
		parsed++
		s.parsed.Store(parsed)
		s.ring.Send(rec)
	}
}

// NextBatch blocks until a record is ringed, then copies every ringed
// record that fits into buf — the ingest.ChanSource contract, so a busy
// feed fills whole chunks and an idle one hands each record over as
// soon as it is parsed.
func (s *Source) NextBatch(buf []trace.Record) (int, error) {
	n, err := s.ring.NextBatch(buf)
	return n, s.verdict(err)
}

// verdict turns the ring's end of stream into the stream's: a clean
// io.EOF, unless the reader failed.
func (s *Source) verdict(err error) error {
	if err == io.EOF && s.readErr != nil {
		return s.readErr
	}
	return err
}

// Span reports lastTs+1 over the classified records once the producer
// has exited, and 0 before then (and for a stream with no classified
// records) — the span a live stream learns at EOF. A running producer
// reads ahead of the consumer, so a span sampled mid-stream would
// bound records the consumer has yet to see.
func (s *Source) Span() time.Duration { return time.Duration(s.span.Load()) }

// Name labels the source in reports.
func (s *Source) Name() string { return s.name }

// Dropped reports records shed under backpressure — the
// ingest.DropCounter contract the daemon's recordsDropped accounting
// reads. Always 0 outside drop mode.
func (s *Source) Dropped() uint64 { return s.ring.Dropped() }

// Stats returns a snapshot of the capture accounting.
func (s *Source) Stats() Stats {
	kernel := s.kernelFinal.Load()
	if !s.readerDone.Load() {
		kernel = s.fr.Drops()
	}
	parsed, skipped := s.parsed.Load(), s.skipped.Load()
	return Stats{
		Frames:        parsed + skipped,
		Parsed:        parsed,
		Skipped:       skipped,
		RingDropped:   s.ring.Dropped(),
		KernelDropped: kernel,
	}
}

// Close stops the producer and closes the reader. It is idempotent and
// never deadlocks: a producer parked on a full ring is released by the
// ring's Close, one blocked in ReadFrame is unblocked by the reader's
// Close. Records already ringed stay readable until io.EOF.
func (s *Source) Close() error {
	s.once.Do(func() {
		s.stop.Store(true)
		s.closeErr = s.fr.Close()
		s.ring.Close()
		s.wg.Wait()
	})
	return s.closeErr
}
