package sourcetrack

import (
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// This file is the concurrent front end of the tracker: a Feeder owns
// one single-producer/single-consumer ring per shard and a worker
// goroutine per shard, so a live feed's record stream is keyed once on
// the producer side and folded into shard state off the hot path. The
// producer (the aggregator's single FeedBatch goroutine) never touches
// a shard lock; workers contend with nothing but /sources snapshots.
//
// Period semantics are preserved exactly: ClosePeriod flushes the
// producer's pending chunks and waits until every pushed op has been
// applied (a per-shard pushed==applied barrier) before closing the
// period on the tracker — so a period close still observes precisely
// the records that preceded it in the stream, and the per-key reports
// are bit-identical to feeding the tracker directly.

// feedOp is one pre-keyed observation: a SYN for key (synAck=false)
// or a SYN/ACK toward key (synAck=true).
type feedOp struct {
	key    netip.Prefix
	synAck bool
}

// feederChunk is how many ops the producer accumulates per shard
// before handing the chunk to the shard's ring — big enough to
// amortize the ring's atomics, small enough to keep worker latency
// low on sparse feeds.
const feederChunk = 256

// ringSlots is the per-shard ring capacity in chunks (power of two).
// 64 chunks × 256 ops ≈ 16k in-flight ops per shard before the
// producer spins.
const ringSlots = 64

// spscRing is a fixed-capacity single-producer/single-consumer queue
// of op chunks. Only head (consumer) and tail (producer) are shared,
// each written by exactly one side, so two atomic loads and one store
// bound the cost of a push or pop.
type spscRing struct {
	slots [ringSlots][]feedOp
	head  atomic.Uint64 // next slot to pop (consumer-owned)
	tail  atomic.Uint64 // next slot to push (producer-owned)
}

// push enqueues a chunk, spinning (with Gosched) while the ring is
// full — the feeder's backpressure: a producer outrunning a worker
// slows to the worker's pace rather than growing without bound.
func (r *spscRing) push(ops []feedOp) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() < ringSlots {
			r.slots[t%ringSlots] = ops
			r.tail.Store(t + 1)
			return
		}
		runtime.Gosched()
	}
}

// pop dequeues a chunk, or returns false when the ring is empty.
func (r *spscRing) pop() ([]feedOp, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return nil, false
	}
	ops := r.slots[h%ringSlots]
	r.slots[h%ringSlots] = nil
	r.head.Store(h + 1)
	return ops, true
}

// Feeder pumps records into a Tracker through per-shard SPSC rings.
// It implements the same tap interface as the tracker itself
// (ingest.RecordTap), so it drops into any Pipeline.Tap slot. The
// producer side (RecordBatch, ClosePeriod) must be a single goroutine
// — the discipline the aggregator already has. Close when done; an unclosed feeder leaks
// its workers.
type Feeder struct {
	t       *Tracker
	rings   []*spscRing
	pending [][]feedOp      // producer-side chunk per shard, being filled
	pushed  []uint64        // producer-side op count handed to each ring
	applied []atomic.Uint64 // consumer-side op count folded per shard
	pool    sync.Pool       // recycled op chunks (*[]feedOp)
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// NewFeeder starts one worker per tracker shard and returns the
// feeder. The tracker must not receive Observe/ObserveBatch calls from
// elsewhere while the feeder runs (reads — Stats, Sources, View — are
// fine; ClosePeriod must come through the feeder so the drain barrier
// holds).
func NewFeeder(t *Tracker) *Feeder {
	n := len(t.shards)
	f := &Feeder{
		t:       t,
		rings:   make([]*spscRing, n),
		pending: make([][]feedOp, n),
		pushed:  make([]uint64, n),
		applied: make([]atomic.Uint64, n),
		stop:    make(chan struct{}),
	}
	f.pool.New = func() any {
		ops := make([]feedOp, 0, feederChunk)
		return &ops
	}
	for i := range f.rings {
		f.rings[i] = &spscRing{}
		f.wg.Add(1)
		go f.worker(i)
	}
	return f
}

// Tracker returns the tracker the feeder feeds.
func (f *Feeder) Tracker() *Tracker { return f.t }

func (f *Feeder) worker(si int) {
	defer f.wg.Done()
	ring := f.rings[si]
	for {
		ops, ok := ring.pop()
		if !ok {
			select {
			case <-f.stop:
				// Drain anything raced in between the last pop and
				// the stop signal.
				for {
					ops, ok := ring.pop()
					if !ok {
						return
					}
					f.apply(si, ops)
				}
			default:
				runtime.Gosched()
				continue
			}
		}
		f.apply(si, ops)
	}
}

// apply folds one chunk into its shard under a single lock hold, then
// recycles the chunk and publishes progress for the drain barrier.
func (f *Feeder) apply(si int, ops []feedOp) {
	s := f.t.shards[si]
	done := int(f.t.periods.Load())
	s.mu.Lock()
	for _, op := range ops {
		s.applyLocked(op, done, &f.t.cfg)
	}
	s.mu.Unlock()
	f.applied[si].Add(uint64(len(ops)))
	ops = ops[:0]
	f.pool.Put(&ops)
}

// enqueue appends one op to its shard's pending chunk, handing the
// chunk to the ring when full.
func (f *Feeder) enqueue(op feedOp) {
	si := f.t.shardIndex(op.key)
	ops := f.pending[si]
	if ops == nil {
		ops = (*f.pool.Get().(*[]feedOp))[:0]
	}
	ops = append(ops, op)
	if len(ops) >= feederChunk {
		f.pushed[si] += uint64(len(ops))
		f.rings[si].push(ops)
		ops = nil
	}
	f.pending[si] = ops
}

// RecordBatch implements ingest.RecordTap: one keying pass over the
// chunk on the producer side, shard work queued for the workers.
func (f *Feeder) RecordBatch(recs []trace.Record) {
	for i := range recs {
		op, ok := f.t.keyRecord(&recs[i])
		if !ok {
			continue
		}
		f.enqueue(op)
	}
}

// ClosePeriod flushes all pending chunks, waits until every queued op
// has been folded, and then closes the period on the tracker — the
// barrier that keeps period boundaries exact under concurrency.
func (f *Feeder) ClosePeriod(index int, end time.Duration) {
	f.flush()
	for si := range f.rings {
		for f.applied[si].Load() != f.pushed[si] {
			runtime.Gosched()
		}
	}
	f.t.ClosePeriod(index, end)
}

// flush hands every non-empty pending chunk to its ring.
func (f *Feeder) flush() {
	for si, ops := range f.pending {
		if len(ops) == 0 {
			continue
		}
		f.pushed[si] += uint64(len(ops))
		f.rings[si].push(ops)
		f.pending[si] = nil
	}
}

// Close flushes, drains and stops the workers. The feeder must not be
// used after Close; the tracker remains valid.
func (f *Feeder) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.flush()
	for si := range f.rings {
		for f.applied[si].Load() != f.pushed[si] {
			runtime.Gosched()
		}
	}
	close(f.stop)
	f.wg.Wait()
}
