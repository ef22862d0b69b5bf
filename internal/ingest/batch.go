package ingest

import (
	"io"
	"sync"

	"repro/internal/trace"
)

// DefaultChunk is the record-chunk size the batch pipeline uses when
// the caller does not pick one: 1024 records × 72 B ≈ 72 KiB per
// chunk — large enough to amortize interface dispatch and period
// bookkeeping to noise, small enough to stay cache- and
// latency-friendly for live feeds.
const DefaultChunk = 1024

// BatchSource is the chunked face of a record stream: NextBatch fills
// buf with up to len(buf) records and returns how many it wrote.
// io.EOF — which may arrive together with n > 0 (EOF mid-chunk) —
// marks a clean end of stream; any other error invalidates nothing
// before buf[n]. Every source ingest.Open returns implements it
// natively; AsBatch adapts anything else.
type BatchSource interface {
	NextBatch(buf []trace.Record) (n int, err error)
	Close() error
}

// AsBatch returns src's chunked face: src itself when it is a native
// BatchSource, otherwise a thin adapter that fills each chunk through
// the single-record Next — the compatibility path for Source
// implementations outside this package.
func AsBatch(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batchAdapter{src: src}
}

// batchAdapter lifts a legacy single-record Source onto the batch
// contract. The per-record interface call remains — the adapter exists
// so the rest of the pipeline has exactly one shape — but everything
// downstream of the source still runs chunk at a time.
type batchAdapter struct {
	src Source
}

func (a *batchAdapter) NextBatch(buf []trace.Record) (int, error) {
	n := 0
	for n < len(buf) {
		r, err := a.src.Next()
		if err != nil {
			return n, err
		}
		buf[n] = r
		n++
	}
	return n, nil
}

func (a *batchAdapter) Close() error { return a.src.Close() }

// arenaFreeSlots bounds the alloc-free fast lane of an Arena; chunks
// beyond it spill into the sync.Pool (which boxes the slice header,
// one small allocation per spill, and is subject to GC).
const arenaFreeSlots = 16

// Arena is a sync.Pool-backed pool of fixed-capacity record chunks.
// Get hands out a full-length chunk, Put returns it for reuse; after
// the pool warms up, pushing any number of chunks through a pipeline
// allocates nothing per record. A small channel free list fronts the
// sync.Pool so the steady-state Get/Put cycle is zero-allocation
// (Put into a sync.Pool would box the slice header) and immune to GC
// emptying the pool. Arenas are safe for concurrent use.
type Arena struct {
	size int
	free chan []trace.Record
	pool sync.Pool
}

// NewArena builds an arena of chunks holding size records each
// (DefaultChunk when size <= 0).
func NewArena(size int) *Arena {
	if size <= 0 {
		size = DefaultChunk
	}
	a := &Arena{size: size, free: make(chan []trace.Record, arenaFreeSlots)}
	a.pool.New = func() any {
		buf := make([]trace.Record, a.size)
		return &buf
	}
	return a
}

// Size returns the arena's chunk capacity in records.
func (a *Arena) Size() int { return a.size }

// Get returns a chunk of length Size. Contents are unspecified; the
// caller overwrites before reading.
func (a *Arena) Get() []trace.Record {
	select {
	case buf := <-a.free:
		return buf
	default:
		return *(a.pool.Get().(*[]trace.Record))
	}
}

// Put returns a chunk obtained from Get. Chunks of a different
// capacity are dropped rather than poisoning the pool.
func (a *Arena) Put(buf []trace.Record) {
	if cap(buf) != a.size {
		return
	}
	buf = buf[:a.size]
	select {
	case a.free <- buf:
	default:
		a.putSlow(buf)
	}
}

// putSlow spills an overflow chunk into the sync.Pool. Boxing the
// slice header (&buf) lives here, in its own frame, so the escape does
// not leak into Put's fast path — with it inline, every Put paid one
// heap allocation even when the free list took the chunk.
func (a *Arena) putSlow(buf []trace.Record) {
	a.pool.Put(&buf)
}

// DropCounter is implemented by live sources that shed records instead
// of blocking when their ring overruns (ChanSource in drop mode). The
// daemon surfaces the count in /metrics so backpressure loss is never
// silent.
type DropCounter interface {
	Dropped() uint64
}

// drain pulls src dry through the batch interface into agg, reusing
// one arena chunk. It is the shared run loop of Pipeline.Run and
// anything else that wants an unpaced full replay.
func drain(src BatchSource, agg *Aggregator, arena *Arena) error {
	buf := arena.Get()
	defer arena.Put(buf)
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			if ferr := agg.FeedBatch(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
