package ingest

import (
	"io"
	"sync"

	"repro/internal/trace"
)

// DefaultChunk is the record-chunk size a pipeline uses when the
// caller supplies no arena: 1024 records × 64 B = 64 KiB per chunk —
// large enough to amortize interface dispatch and period bookkeeping
// to noise, small enough to stay cache- and latency-friendly for live
// feeds.
const DefaultChunk = 1024

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

// Get returns a chunk of the arena's size. Contents are unspecified;
// the caller overwrites before reading.
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

// drain pulls src dry into agg, reusing one arena chunk. It is the
// shared run loop of Pipeline.Run and anything else that wants an
// unpaced full replay.
func drain(src Source, agg *Aggregator, arena *Arena) error {
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
