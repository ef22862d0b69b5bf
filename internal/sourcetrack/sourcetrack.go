// Package sourcetrack is the per-source attribution engine: it runs
// one stateless CUSUM instance per source key, so an alarm does not
// just say "a flood left this stub network" but *which* source prefix
// it left from. The paper's agent (internal/core) is the aggregate
// special case; this package banks many of its detectors behind a
// keyed demux, the standard construction for localizing change-points
// in aggregate traffic (Lévy-Leduc & Roueff 2009, see PAPERS.md).
//
// Keying: outgoing SYNs are keyed by their source address, incoming
// SYN/ACKs by their destination address — both resolve to the inside
// host that opened the connection, masked to a configurable prefix
// width (/32 per host, /24, /16, ...). A spoofing flooder therefore
// concentrates unanswered SYNs on its key(s) while legitimate keys
// keep their SYN-SYN/ACK balance.
//
// Memory is bounded: only the top-K SYN senders (Space-Saving heavy-
// hitter sketch, Metwally et al.) hold full CUSUM state. When a new
// key arrives at capacity the minimum-count state is recycled in
// place, so the tracker allocates O(K) detector states no matter how
// many distinct sources the stream carries; evictions are counted in
// TrackerStats, never dropped silently. Each shard keeps its states in
// flat arrays — a slab of per-key states with the EWMA and CUSUM
// inline, an open-addressing index from key to slot, and a min-heap of
// inline (count, key, slot) entries — so a spoofed flood that recycles
// a state on most SYNs costs integer compares, not allocations.
//
// Concurrency: keys hash (FNV-1a) onto lock-striped shards, so live
// ingestion scales across GOMAXPROCS. Replays wanting determinism use
// Shards=1 (the default): a single-shard single-goroutine run is
// bit-identical to running one core.Agent per key over a pre-filtered
// trace — the equivalence the tests pin.
package sourcetrack

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Defaults for the keyed engine. The per-key MinK floor is higher
// than the aggregate default (1): a /24 slice of a quiet site sees
// near-zero SYN/ACKs per period, and a floor of a few packets keeps
// one retransmitted SYN from registering as a full normalized unit.
const (
	DefaultKeyBits    = 24
	DefaultMaxSources = 1024
	DefaultKeyMinK    = 10
)

// Config parameterizes a Tracker. Zero fields take defaults.
type Config struct {
	// KeyBits is the prefix width sources are masked to: 32 tracks
	// individual hosts, 24/16 aggregate (default 24). IPv6 addresses
	// keep the same host-part width (e.g. /24 keying masks v6
	// addresses to /120).
	KeyBits int
	// MaxSources is K, the number of sources holding full CUSUM state
	// (default 1024). Everything beyond K competes via Space-Saving
	// admission.
	MaxSources int
	// Shards is the lock-stripe count (default 1). One shard is the
	// deterministic replay path; live feeds pass GOMAXPROCS. The
	// shard count is an execution detail like experiment Parallelism:
	// it may change across a resume.
	Shards int
	// Agent holds the per-key detector parameters (T0, Alpha, Offset,
	// Threshold, MinK, WarmupPeriods). A zero MinK defaults to
	// DefaultKeyMinK, not the aggregate agent's 1.
	Agent core.Config
}

// Normalized returns the configuration with defaults applied. Two
// configurations resume-match exactly when their normalized KeyBits,
// MaxSources and Agent agree (Shards is an execution detail).
func (c Config) Normalized() Config {
	if c.KeyBits == 0 {
		c.KeyBits = DefaultKeyBits
	}
	if c.MaxSources == 0 {
		c.MaxSources = DefaultMaxSources
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Agent.MinK == 0 {
		c.Agent.MinK = DefaultKeyMinK
	}
	c.Agent = c.Agent.Normalized()
	return c
}

// TrackerStats reports the tracker's volume and truncation counters —
// the "what did we drop" ledger that keeps bounded memory honest.
type TrackerStats struct {
	// SYNs and SYNACKs count keyed observations routed to a tracked
	// state.
	SYNs    uint64 `json:"syns"`
	SYNACKs uint64 `json:"synAcks"`
	// UntrackedSYNACKs counts SYN/ACKs whose key held no CUSUM state
	// (SYN/ACKs never admit a key; only SYN pressure does).
	UntrackedSYNACKs uint64 `json:"untrackedSynAcks"`
	// Unkeyed counts records with no usable address.
	Unkeyed uint64 `json:"unkeyed"`
	// Evicted counts CUSUM states recycled by Space-Saving admission.
	Evicted uint64 `json:"evicted"`
	// Tracked and Alarmed describe the current key population.
	Tracked int `json:"tracked"`
	Alarmed int `json:"alarmed"`
}

// SourceReport is one key's detection state, the /sources payload row.
type SourceReport struct {
	Key netip.Prefix `json:"key"`
	// Count is the Space-Saving SYN count estimate; CountErr bounds
	// its overestimation (0 for keys admitted before capacity).
	Count        uint64  `json:"synCount"`
	CountErr     uint64  `json:"synCountErr"`
	Periods      int     `json:"periods"`
	KBar         float64 `json:"kBar"`
	Y            float64 `json:"yn"`
	X            float64 `json:"x"`
	OutSYN       uint64  `json:"lastOutSYN"`
	InSYNACK     uint64  `json:"lastInSYNACK"`
	Alarmed      bool    `json:"alarmed"`
	AlarmPeriod  int     `json:"alarmPeriod,omitempty"`
	AlarmAtNanos int64   `json:"alarmAtNanos,omitempty"`
	AlarmY       float64 `json:"alarmY,omitempty"`
}

// key is a source key in fixed width: the masked address as two
// big-endian words plus its family, a v4 key holding its 32 bits in
// the low half of lo. Ordering keys by (family, hi, lo) is
// netip.Addr.Compare on the unmapped, zoneless prefixes they stand
// for, and every key of one family has the same prefix width, so the
// (address, bits) tie-break is integer compares.
type key struct {
	hi, lo uint64
	v6     bool
}

func (k key) compare(o key) int {
	if k.v6 != o.v6 {
		if k.v6 {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(k.hi, o.hi); c != 0 {
		return c
	}
	return cmp.Compare(k.lo, o.lo)
}

// prefix is the netip form of the key under keyBits-wide keying.
func (k key) prefix(keyBits int) netip.Prefix {
	if !k.v6 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.lo))
		return netip.PrefixFrom(netip.AddrFrom4(b), keyBits)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), 96+keyBits)
}

// keyState is one tracked source: the same scalars a core.Agent keeps
// (EWMA K̄, CUSUM statistic, period counters) plus the Space-Saving
// error bound; the count and the key sit in the shard's heap entry.
// It deliberately carries no report history and no pointer — per key
// memory is O(1), so total memory is O(MaxSources), and a shard's
// slab of states is one allocation the garbage collector never scans.
type keyState struct {
	errc uint64 // overestimation bound inherited at admission

	kBar cusum.EWMA
	det  cusum.Detector

	periods  int
	outSYN   uint64
	inSYNACK uint64
	last     core.Report
	alarm    core.Alarm
	alarmed  bool // alarm holds the latched first crossing
}

// endPeriod folds this key's period counters through core.Fold — the
// same fold the aggregate agent runs — and latches the key's alarm.
// It returns the period report and whether a new alarm latched.
func (st *keyState) endPeriod(end time.Duration, cfg *core.Config) (core.Report, bool) {
	r := core.Fold(cfg, &st.kBar, &st.det, st.periods, end, st.outSYN, st.inSYNACK)
	newAlarm := r.Alarmed && !st.alarmed
	if newAlarm {
		st.alarm = core.Alarm{Period: r.Index, At: end, Y: r.Y}
		st.alarmed = true
	}
	st.periods++
	st.outSYN, st.inSYNACK = 0, 0
	st.last = r
	return r, newAlarm
}

// heapEntry is one node of a shard's admission min-heap: the key's
// Space-Saving count and the key itself inline, so ordering two nodes
// reads no state, and the slab slot holding the key's detector.
type heapEntry struct {
	count uint64
	k     key
	slot  int32
}

// less orders the admission heap: by Space-Saving count, with the key
// itself as tie-break. Keys are unique, so the root is the unique
// minimum and the eviction sequence does not depend on heap layout.
func (a *heapEntry) less(b *heapEntry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.k.compare(b.k) < 0
}

// index maps keys to slab slots: open addressing with linear probing,
// at most half full, deletion by backshift (no tombstones). The hash
// is seeded per tracker: spoofed keys are attacker-chosen, and an
// unseeded hash would let a flood line its keys up on one probe run.
type index struct {
	ents         []indexEntry // power-of-two length
	n            int
	seed0, seed1 uint64
}

// indexEntry is one bucket; a negative slot marks it free.
type indexEntry struct {
	k    key
	slot int32
}

// newIndex starts small: the table doubles as keys arrive, so memory
// follows the tracked population, not MaxSources.
func newIndex(seed0, seed1 uint64) index {
	return index{ents: freeEntries(16), seed0: seed0, seed1: seed1}
}

func freeEntries(n int) []indexEntry {
	ents := make([]indexEntry, n)
	for i := range ents {
		ents[i].slot = -1
	}
	return ents
}

// home is k's first bucket: the 128-bit product of the seeded key
// words, its halves multiplied again and folded (a wyhash-style mix;
// one product alone maps keys that differ in a few high bits linearly
// onto the low bucket bits).
func (x *index) home(k key) int {
	hi, lo := bits.Mul64(k.lo^x.seed0, k.hi^x.seed1)
	hi, lo = bits.Mul64(hi^x.seed0, lo^x.seed1)
	return int((hi ^ lo) & uint64(len(x.ents)-1))
}

// find returns k's slot, or -1 when k holds none.
func (x *index) find(k key) int32 {
	mask := len(x.ents) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		if e := &x.ents[i]; e.slot < 0 || e.k == k {
			return e.slot
		}
	}
}

// insert maps k, which must be absent, to slot, doubling the table
// first if it would pass half full.
func (x *index) insert(k key, slot int32) {
	if 2*(x.n+1) > len(x.ents) {
		old := x.ents
		x.ents, x.n = freeEntries(2*len(old)), 0
		for _, e := range old {
			if e.slot >= 0 {
				x.insert(e.k, e.slot)
			}
		}
	}
	mask := len(x.ents) - 1
	i := x.home(k)
	for x.ents[i].slot >= 0 {
		i = (i + 1) & mask
	}
	x.ents[i] = indexEntry{k, slot}
	x.n++
}

// remove unmaps k, which must be present, and shifts each later entry
// of its probe run that may move back into the hole.
func (x *index) remove(k key) {
	mask := len(x.ents) - 1
	i := x.home(k)
	for x.ents[i].k != k {
		i = (i + 1) & mask
	}
	x.n--
	for {
		x.ents[i].slot = -1
		j := i
		for {
			j = (j + 1) & mask
			if x.ents[j].slot < 0 {
				return
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			if (j-x.home(x.ents[j].k))&mask >= (j-i)&mask {
				break
			}
		}
		x.ents[i] = x.ents[j]
		i = j
	}
}

// shard is one lock stripe: a slab of key states, the index from key
// to slab slot, and the Space-Saving min-heap over every slot, with
// pos locating each slot's heap node.
type shard struct {
	mu     sync.Mutex
	cap    int
	warmup int
	fresh  keyState // a never-observed state: the detector parameters, nothing else

	slab  []keyState
	heap  []heapEntry
	pos   []int32
	index index

	syns, synAcks, untracked, evicted uint64
	alarmed                           int
}

// place puts e at heap position i and records where its slot went.
func (s *shard) place(e heapEntry, i int) {
	s.heap[i] = e
	s.pos[e.slot] = int32(i)
}

func (s *shard) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&s.heap[parent]) {
			break
		}
		s.place(s.heap[parent], i)
		i = parent
	}
	s.place(e, i)
}

func (s *shard) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.heap[r].less(&s.heap[c]) {
			c = r
		}
		if !s.heap[c].less(&e) {
			break
		}
		s.place(s.heap[c], i)
		i = c
	}
	s.place(e, i)
}

// reset recycles st for a (possibly new) key. inherited is the
// Space-Saving count the key starts from (the evicted minimum; 0 when
// admitted below capacity). done is the tracker's completed-period
// clock: a key first seen now is indistinguishable from one that sat
// at zero counts since the stream began, and `done` zero-count
// periods prime K̄ to 0 (the first EWMA sample initializes directly)
// and leave the CUSUM statistic at 0 having consumed every
// post-warm-up period — so a late-admitted key is bit-identical to a
// core.Agent that replayed the key's records from the trace start.
func (s *shard) reset(st *keyState, inherited uint64, done int) {
	*st = s.fresh
	st.errc = inherited
	st.periods = done
	// The zero state cannot fail validation.
	_ = st.kBar.Restore(0, done > 0)
	_ = st.det.Restore(0, false, uint64(max(done-s.warmup, 0)), 0)
}

// insert adds a key's state at the given count: admission below
// capacity, and restored states (resume path; may exceed cap when the
// shard count changed across the restart — admission then recycles in
// place without growing, so memory stays bounded by the snapshot).
func (s *shard) insert(k key, count uint64, st *keyState) int32 {
	slot := int32(len(s.slab))
	s.slab = append(s.slab, *st)
	s.pos = append(s.pos, int32(len(s.heap)))
	s.heap = append(s.heap, heapEntry{count: count, k: k, slot: slot})
	s.index.insert(k, slot)
	s.siftUp(len(s.heap) - 1)
	return slot
}

// admit gives a new key a state and returns its slot, growing the slab
// below capacity and recycling the minimum-count state (Space-Saving)
// at capacity. Callers hold s.mu.
func (s *shard) admit(k key, done int) int32 {
	if len(s.heap) < s.cap {
		var st keyState
		s.reset(&st, 0, done)
		return s.insert(k, 0, &st)
	}
	root := &s.heap[0] // minimum count
	s.index.remove(root.k)
	st := &s.slab[root.slot]
	if st.alarmed {
		s.alarmed--
	}
	s.evicted++
	// The new key inherits the evicted minimum as count and error
	// bound; count is unchanged so the heap property holds at the
	// root until the caller's increment sifts it down.
	s.reset(st, root.count, done)
	root.k = k
	s.index.insert(k, root.slot)
	return root.slot
}

// observeSYNLocked counts one keyed SYN, admitting the key if it holds
// no state. Callers hold the shard lock.
func (s *shard) observeSYNLocked(k key, done int) {
	s.syns++
	slot := s.index.find(k)
	if slot < 0 {
		slot = s.admit(k, done)
	}
	s.slab[slot].outSYN++
	i := int(s.pos[slot])
	s.heap[i].count++
	s.siftDown(i)
}

func (s *shard) observeSYNACKLocked(k key) {
	if slot := s.index.find(k); slot >= 0 {
		s.synAcks++
		s.slab[slot].inSYNACK++
	} else {
		s.untracked++
	}
}

func (s *shard) closePeriod(end time.Duration, cfg *core.Config, keyBits int, onReport func(netip.Prefix, core.Report)) {
	s.mu.Lock()
	for i := range s.heap {
		e := &s.heap[i]
		r, newAlarm := s.slab[e.slot].endPeriod(end, cfg)
		if newAlarm {
			s.alarmed++
		}
		if onReport != nil {
			onReport(e.k.prefix(keyBits), r)
		}
	}
	s.mu.Unlock()
}

// report builds the /sources row of the key at heap node e.
func (s *shard) report(e *heapEntry, keyBits int) SourceReport {
	st := &s.slab[e.slot]
	r := SourceReport{
		Key: e.k.prefix(keyBits), Count: e.count, CountErr: st.errc,
		Periods: st.periods, KBar: st.kBar.Value(),
		Y: st.det.Statistic(), X: st.last.X,
		OutSYN: st.last.OutSYN, InSYNACK: st.last.InSYNACK,
		Alarmed: st.alarmed,
	}
	if st.alarmed {
		r.AlarmPeriod = st.alarm.Period
		r.AlarmAtNanos = int64(st.alarm.At)
		r.AlarmY = st.alarm.Y
	}
	return r
}

// Tracker is the keyed detection engine. Observe routes records onto
// shards concurrently; ClosePeriod must come from a single caller
// (the pipeline's aggregator) with no Observe in flight for
// deterministic period boundaries — exactly the discipline the
// ingest.Aggregator's single FeedBatch/ClosePeriod caller already has.
type Tracker struct {
	cfg     Config
	mask    uint64 // keeps a key's top KeyBits of the low 32 address bits
	shards  []*shard
	periods atomic.Int64
	unkeyed atomic.Uint64

	// sweepMu serializes whole-tracker sweeps: ClosePeriod holds it
	// exclusively for its full multi-shard pass, and View holds it
	// shared — so a view can never observe shard 0 folded into period
	// n+1 while shard 1 still sits in period n. Observe deliberately
	// does not touch it: per-record routing stays lock-striped and the
	// single-caller ClosePeriod discipline already excludes in-flight
	// records at boundaries.
	sweepMu sync.RWMutex

	// batchMu guards the per-shard grouping scratch ObserveBatch uses.
	// The canonical caller (the aggregator's single FeedBatch
	// goroutine) is serial; the lock merely keeps an unexpected
	// concurrent batch caller safe, at one uncontended lock per chunk.
	batchMu sync.Mutex
	scratch [][]feedOp

	// OnReport, if set, receives every per-key period report as it
	// closes. Called under the shard lock; keep it cheap. Tests use it
	// to compare against a per-key core.Agent.
	OnReport func(key netip.Prefix, r core.Report)
}

// New builds a tracker. The per-key detector parameters are validated
// once here; admissions reuse them unchecked.
func New(cfg Config) (*Tracker, error) {
	cfg = cfg.Normalized()
	if cfg.KeyBits < 1 || cfg.KeyBits > 32 {
		return nil, fmt.Errorf("sourcetrack: key bits %d outside [1,32]", cfg.KeyBits)
	}
	if cfg.MaxSources < 1 {
		return nil, fmt.Errorf("sourcetrack: non-positive max sources %d", cfg.MaxSources)
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.MaxSources {
		return nil, fmt.Errorf("sourcetrack: shard count %d outside [1,%d]", cfg.Shards, cfg.MaxSources)
	}
	if cfg.Agent.T0 <= 0 {
		return nil, errors.New("sourcetrack: non-positive observation period")
	}
	if cfg.Agent.MinK <= 0 {
		return nil, errors.New("sourcetrack: non-positive MinK")
	}
	kBar, err := cusum.NewEWMA(cfg.Agent.Alpha)
	if err != nil {
		return nil, fmt.Errorf("sourcetrack: alpha: %w", err)
	}
	det, err := cusum.New(cfg.Agent.Offset, cfg.Agent.Threshold)
	if err != nil {
		return nil, fmt.Errorf("sourcetrack: detector: %w", err)
	}
	perShard := (cfg.MaxSources + cfg.Shards - 1) / cfg.Shards
	t := &Tracker{
		cfg:    cfg,
		mask:   ^uint64(0) << (32 - cfg.KeyBits),
		shards: make([]*shard, cfg.Shards),
	}
	// An odd seed1 keeps the index hash of a v4 key (hi = 0) a product
	// with an odd factor, a bijection on the key word.
	seed0, seed1 := rand.Uint64(), rand.Uint64()|1
	for i := range t.shards {
		t.shards[i] = &shard{
			cap:    perShard,
			warmup: cfg.Agent.WarmupPeriods,
			fresh:  keyState{kBar: *kBar, det: *det},
			index:  newIndex(seed0, seed1),
		}
	}
	return t, nil
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// keyOf masks an address to the tracker's key. A v4-mapped address
// keys as v4 and a zone is dropped; the zero Addr has no key.
func (t *Tracker) keyOf(a netip.Addr) (key, bool) {
	if !a.IsValid() {
		return key{}, false
	}
	b := a.As16()
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	if hi == 0 && lo>>32 == 0xffff {
		return key{lo: uint64(uint32(lo)) & t.mask}, true
	}
	return key{hi: hi, lo: lo & t.mask, v6: true}, true
}

// FNV-1a over the key's 16-byte address form and its prefix bits
// routes keys to shards. The routing decides which shard's
// Space-Saving table a key competes in, so it is part of the output.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMapped is the FNV-1a state after the 12 constant bytes a v4 key's
// 16-byte (v4-mapped) form starts with.
var fnvMapped = fnvBytes(fnvBytes(fnvOffset, 0, 8), 0xffff, 4)

// fnvBytes folds the low n bytes of w, most significant first.
func fnvBytes(h, w uint64, n int) uint64 {
	for i := 8 * (n - 1); i >= 0; i -= 8 {
		h ^= (w >> i) & 0xff
		h *= fnvPrime
	}
	return h
}

// shardIndex routes a key to its lock stripe (inline FNV-1a; no
// per-record allocation).
func (t *Tracker) shardIndex(k key) int {
	if len(t.shards) == 1 {
		return 0
	}
	var h uint64
	width := t.cfg.KeyBits
	if k.v6 {
		h = fnvBytes(fnvBytes(fnvOffset, k.hi, 8), k.lo, 8)
		width += 96
	} else {
		h = fnvBytes(fnvMapped, k.lo, 4)
	}
	h ^= uint64(uint8(width))
	h *= fnvPrime
	return int(h % uint64(len(t.shards)))
}

// Observe routes one record. Only the pair the paper's detector pairs
// is keyed: outgoing SYNs by source, incoming SYN/ACKs by destination
// — both name the inside host behind the connection (see keyRecord).
// SYN/ACKs never admit a key (only SYN pressure does); a SYN/ACK for
// an untracked key is tallied in TrackerStats.UntrackedSYNACKs.
func (t *Tracker) Observe(r trace.Record) {
	op, ok := t.keyRecord(&r)
	if !ok {
		return
	}
	s := t.shards[t.shardIndex(op.k)]
	s.mu.Lock()
	s.applyLocked(op, int(t.periods.Load()))
	s.mu.Unlock()
}

// Record observes one record. The ingest pipeline delivers records
// through RecordBatch; Record stays for callers timing or feeding
// single records outside it — the benchmark harness's timed tap in
// perfbench/capture.go calls it.
func (t *Tracker) Record(r trace.Record) { t.Observe(r) }

// keyRecord classifies one record into a feedOp: outgoing SYNs keyed
// by source, incoming SYN/ACKs by destination, everything else (and
// unkeyable addresses, which bump the unkeyed counter) ignored.
func (t *Tracker) keyRecord(r *trace.Record) (feedOp, bool) {
	switch {
	case r.Dir == trace.DirOut && r.Kind == packet.KindSYN:
		k, ok := t.keyOf(r.Src)
		if !ok {
			t.unkeyed.Add(1)
			return feedOp{}, false
		}
		return feedOp{k: k}, true
	case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
		k, ok := t.keyOf(r.Dst)
		if !ok {
			t.unkeyed.Add(1)
			return feedOp{}, false
		}
		return feedOp{k: k, synAck: true}, true
	}
	return feedOp{}, false
}

// applyLocked folds one pre-keyed op into the shard. Callers hold the
// shard lock; done is the tracker's completed-period clock, stable for
// the whole chunk because period closes are excluded while a batch is
// in flight.
func (s *shard) applyLocked(op feedOp, done int) {
	if op.synAck {
		s.observeSYNACKLocked(op.k)
	} else {
		s.observeSYNLocked(op.k, done)
	}
}

// ObserveBatch routes a chunk of records, grouping ops per shard so
// each shard lock is taken once per chunk instead of once per record.
// Per-shard op order preserves record order, so the resulting state is
// bit-identical to calling Observe record by record (the equivalence
// the keyed fuzz target pins). The grouping scratch is retained across
// calls; steady-state batches allocate nothing.
func (t *Tracker) ObserveBatch(recs []trace.Record) {
	t.batchMu.Lock()
	defer t.batchMu.Unlock()
	if t.scratch == nil {
		t.scratch = make([][]feedOp, len(t.shards))
	}
	for i := range recs {
		op, ok := t.keyRecord(&recs[i])
		if !ok {
			continue
		}
		si := t.shardIndex(op.k)
		t.scratch[si] = append(t.scratch[si], op)
	}
	done := int(t.periods.Load())
	for si, ops := range t.scratch {
		if len(ops) == 0 {
			continue
		}
		s := t.shards[si]
		s.mu.Lock()
		for _, op := range ops {
			s.applyLocked(op, done)
		}
		s.mu.Unlock()
		t.scratch[si] = ops[:0]
	}
}

// RecordBatch implements the ingest.RecordTap demux hook.
func (t *Tracker) RecordBatch(recs []trace.Record) { t.ObserveBatch(recs) }

// ClosePeriod closes the observation period for every tracked key.
// index is the pipeline's period index (informational; the tracker
// keeps its own clock, which the daemon aligns at startup).
func (t *Tracker) ClosePeriod(index int, end time.Duration) {
	_ = index
	t.sweepMu.Lock()
	for _, s := range t.shards {
		s.closePeriod(end, &t.cfg.Agent, t.cfg.KeyBits, t.OnReport)
	}
	t.periods.Add(1)
	t.sweepMu.Unlock()
}

// Periods returns how many observation periods have closed, including
// resumed or fast-forwarded ones.
func (t *Tracker) Periods() int { return int(t.periods.Load()) }

// FastForward advances an empty tracker's period clock — used when
// keyed tracking is first enabled over an aggregate-only snapshot:
// keyed evidence starts at the resume point and keys admitted later
// fast-forward from there (see shard.reset).
func (t *Tracker) FastForward(periods int) error {
	if periods < 0 {
		return fmt.Errorf("sourcetrack: negative period count %d", periods)
	}
	st := t.Stats()
	if st.Tracked != 0 || st.SYNs != 0 || st.Unkeyed != 0 || t.Periods() != 0 {
		return errors.New("sourcetrack: fast-forward on a non-fresh tracker")
	}
	t.periods.Store(int64(periods))
	return nil
}

// addStats adds the shard's counters to st. Callers hold s.mu.
func (s *shard) addStats(st *TrackerStats) {
	st.SYNs += s.syns
	st.SYNACKs += s.synAcks
	st.UntrackedSYNACKs += s.untracked
	st.Evicted += s.evicted
	st.Tracked += len(s.heap)
	st.Alarmed += s.alarmed
}

// Stats sums the per-shard counters.
func (t *Tracker) Stats() TrackerStats {
	st := TrackerStats{Unkeyed: t.unkeyed.Load()}
	for _, s := range t.shards {
		s.mu.Lock()
		s.addStats(&st)
		s.mu.Unlock()
	}
	return st
}

// Sources returns the tracked keys ranked most-suspect first: alarmed
// keys, then by CUSUM statistic, SYN count and finally the key itself
// (a total order, so the ranking is deterministic). n > 0 truncates.
func (t *Tracker) Sources(n int) []SourceReport { return t.View(n).Sources }

// TrackerView is one consistent observation of the tracker: the period
// clock, stats and ranked source list all describe the same instant —
// no period close can land between them. It is what /sources serves.
type TrackerView struct {
	Periods int
	Stats   TrackerStats
	Sources []SourceReport
}

// rankEntry is one tracked key's place in a view's ranking: the
// fields the order reads, inline, and where the key's heap node sits.
type rankEntry struct {
	y           float64
	count       uint64
	k           key
	shard, node int32
	alarmed     bool
}

// compareRank is the Sources order: alarmed keys, then by CUSUM
// statistic, SYN count and finally the key itself.
func compareRank(a, b rankEntry) int {
	if a.alarmed != b.alarmed {
		if a.alarmed {
			return -1
		}
		return 1
	}
	if a.y != b.y {
		if a.y > b.y {
			return -1
		}
		return 1
	}
	if a.count != b.count {
		if a.count > b.count {
			return -1
		}
		return 1
	}
	return a.k.compare(b.k)
}

// topRanked returns the limit highest-ranked entries of r in rank
// order, or all of r when limit <= 0. Only the kept entries are
// sorted: the rest pass once through a bounded heap of the kept set.
func topRanked(r []rankEntry, limit int) []rankEntry {
	if limit <= 0 || limit >= len(r) {
		slices.SortFunc(r, compareRank)
		return r
	}
	top := r[:limit]
	// top is a heap with its lowest-ranked entry at the root.
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= limit {
				return
			}
			if c+1 < limit && compareRank(top[c+1], top[c]) > 0 {
				c++
			}
			if compareRank(top[c], top[i]) <= 0 {
				return
			}
			top[i], top[c] = top[c], top[i]
			i = c
		}
	}
	for i := limit/2 - 1; i >= 0; i-- {
		down(i)
	}
	for _, e := range r[limit:] {
		if compareRank(e, top[0]) < 0 {
			top[0] = e
			down(0)
		}
	}
	slices.SortFunc(top, compareRank)
	return top
}

// View captures a consistent view of the tracker in a single sweep.
// Unlike calling Periods, Stats and Sources back to back, the three
// parts cannot straddle a ClosePeriod: the whole collection runs under
// the shared sweep lock with every shard locked, so the ranking and
// the rows it selects are one read. Every tracked key is ranked;
// limit > 0 truncates the ranked list, and only the rows kept are
// built (the stats still describe the full population).
func (t *Tracker) View(limit int) TrackerView {
	t.sweepMu.RLock()
	v := TrackerView{
		Periods: int(t.periods.Load()),
		Stats:   TrackerStats{Unkeyed: t.unkeyed.Load()},
	}
	for _, s := range t.shards {
		s.mu.Lock()
		s.addStats(&v.Stats)
	}
	ranks := make([]rankEntry, 0, v.Stats.Tracked)
	for si, s := range t.shards {
		for i, e := range s.heap {
			st := &s.slab[e.slot]
			ranks = append(ranks, rankEntry{y: st.det.Statistic(), count: e.count, k: e.k,
				shard: int32(si), node: int32(i), alarmed: st.alarmed})
		}
	}
	top := topRanked(ranks, limit)
	v.Sources = make([]SourceReport, len(top))
	for i, r := range top {
		s := t.shards[r.shard]
		v.Sources[i] = s.report(&s.heap[r.node], t.cfg.KeyBits)
	}
	for _, s := range t.shards {
		s.mu.Unlock()
	}
	t.sweepMu.RUnlock()
	return v
}

// ProcessTrace replays a recorded trace through the tracker: each
// remaining complete period's run of records goes through ObserveBatch
// and the period closes, a boundary every Agent.T0. It is
// resume-aware (periods the tracker already closed are skipped) and
// discards the trailing partial period, matching trace.Aggregate.
// Records are assumed time-ordered and are not validated; records at
// or past the last complete period's end are ignored.
func (t *Tracker) ProcessTrace(tr *trace.Trace) error {
	t0 := t.cfg.Agent.T0
	if tr.Span <= 0 {
		return errors.New("sourcetrack: trace has no span")
	}
	periods := int(tr.Span / t0)
	if periods == 0 {
		return fmt.Errorf("sourcetrack: trace span %v shorter than one period %v", tr.Span, t0)
	}
	done := t.Periods()
	recs := tr.Records
	resumed := t0 * time.Duration(done)
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Ts >= resumed })
	for ; done < periods; done++ {
		end := t0 * time.Duration(done+1)
		j := i
		for j < len(recs) && recs[j].Ts < end {
			j++
		}
		t.ObserveBatch(recs[i:j])
		t.ClosePeriod(done, end)
		i = j
	}
	return nil
}
