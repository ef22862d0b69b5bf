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
// TrackerStats, never dropped silently.
//
// Concurrency: keys hash (FNV-1a) onto lock-striped shards, so live
// ingestion scales across GOMAXPROCS. Replays wanting determinism use
// Shards=1 (the default): a single-shard single-goroutine run is
// bit-identical to running one core.Agent per key over a pre-filtered
// trace — the equivalence the tests pin.
package sourcetrack

import (
	"errors"
	"fmt"
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

// keyState is one tracked source: the same scalars a core.Agent keeps
// (EWMA K̄, CUSUM statistic, period counters) plus the Space-Saving
// admission counters. It deliberately carries no report history — per
// key memory is O(1), so total memory is O(MaxSources).
type keyState struct {
	key netip.Prefix
	idx int // position in the shard's admission min-heap

	count uint64 // Space-Saving estimated SYN count
	errc  uint64 // overestimation bound inherited at admission

	kBar *cusum.EWMA
	det  *cusum.Detector

	periods  int
	outSYN   uint64
	inSYNACK uint64
	last     core.Report
	alarm    *core.Alarm
}

// endPeriod folds this key's period counters through core.Fold — the
// same fold the aggregate agent runs — and latches the key's alarm.
// It returns the period report and whether a new alarm latched.
func (st *keyState) endPeriod(end time.Duration, cfg *core.Config) (core.Report, bool) {
	r := core.Fold(cfg, st.kBar, st.det, st.periods, end, st.outSYN, st.inSYNACK)
	newAlarm := false
	if r.Alarmed && st.alarm == nil {
		st.alarm = &core.Alarm{Period: r.Index, At: end, Y: r.Y}
		newAlarm = true
	}
	st.periods++
	st.outSYN, st.inSYNACK = 0, 0
	st.last = r
	return r, newAlarm
}

// reset recycles the state for a (possibly new) key. inherited is the
// Space-Saving count the key starts from (the evicted minimum; 0 when
// admitted below capacity). done is the tracker's completed-period
// clock: a key first seen now is indistinguishable from one that sat
// at zero counts since the stream began, and `done` zero-count
// periods prime K̄ to 0 (the first EWMA sample initializes directly)
// and leave the CUSUM statistic at 0 having consumed every
// post-warm-up period — so a late-admitted key is bit-identical to a
// core.Agent that replayed the key's records from the trace start.
func (st *keyState) reset(key netip.Prefix, inherited uint64, done, warmup int) {
	st.key = key
	st.count = inherited
	st.errc = inherited
	st.outSYN, st.inSYNACK = 0, 0
	st.last = core.Report{}
	st.alarm = nil
	st.periods = done
	// The zero state cannot fail validation.
	_ = st.kBar.Restore(0, done > 0)
	obs := done - warmup
	if obs < 0 {
		obs = 0
	}
	_ = st.det.Restore(0, false, uint64(obs), 0)
}

func (st *keyState) report() SourceReport {
	r := SourceReport{
		Key: st.key, Count: st.count, CountErr: st.errc,
		Periods: st.periods, KBar: st.kBar.Value(),
		Y: st.det.Statistic(), X: st.last.X,
		OutSYN: st.last.OutSYN, InSYNACK: st.last.InSYNACK,
		Alarmed: st.alarm != nil,
	}
	if st.alarm != nil {
		r.AlarmPeriod = st.alarm.Period
		r.AlarmAtNanos = int64(st.alarm.At)
		r.AlarmY = st.alarm.Y
	}
	return r
}

// keyLess orders the admission heap: by Space-Saving count, with the
// key itself as tie-break so heap evolution is deterministic.
func keyLess(a, b *keyState) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	if c := a.key.Addr().Compare(b.key.Addr()); c != 0 {
		return c < 0
	}
	return a.key.Bits() < b.key.Bits()
}

// shard is one lock stripe: a key→state map plus the Space-Saving
// min-heap over the same states.
type shard struct {
	mu     sync.Mutex
	cap    int
	states map[netip.Prefix]*keyState
	heap   []*keyState

	syns, synAcks, untracked, evicted uint64
	alarmed                           int
}

func (s *shard) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *shard) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(s.heap[i], s.heap[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *shard) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(s.heap) && keyLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < len(s.heap) && keyLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// insert adds a restored state (resume path; may exceed cap when the
// shard count changed across the restart — admission then recycles
// in place without growing, so memory stays bounded by the snapshot).
func (s *shard) insert(st *keyState) {
	st.idx = len(s.heap)
	s.heap = append(s.heap, st)
	s.states[st.key] = st
	s.siftUp(st.idx)
}

// admit returns the state for a new key, allocating below capacity
// and recycling the minimum-count state (Space-Saving) at capacity.
// Callers hold s.mu.
func (s *shard) admit(key netip.Prefix, done int, cfg *Config) *keyState {
	if len(s.heap) < s.cap {
		// Parameters were validated at Tracker construction.
		kb, _ := cusum.NewEWMA(cfg.Agent.Alpha)
		dt, _ := cusum.New(cfg.Agent.Offset, cfg.Agent.Threshold)
		st := &keyState{kBar: kb, det: dt}
		st.reset(key, 0, done, cfg.Agent.WarmupPeriods)
		s.insert(st)
		return st
	}
	st := s.heap[0] // minimum count
	delete(s.states, st.key)
	if st.alarm != nil {
		s.alarmed--
	}
	s.evicted++
	// The new key inherits the evicted minimum as count and error
	// bound; count is unchanged so the heap property holds at the
	// root until the caller's increment sifts it down.
	st.reset(key, st.count, done, cfg.Agent.WarmupPeriods)
	s.states[key] = st
	return st
}

// observeSYNLocked counts one keyed SYN, admitting the key if it holds
// no state. Callers hold the shard lock.
func (s *shard) observeSYNLocked(key netip.Prefix, done int, cfg *Config) {
	s.syns++
	st := s.states[key]
	if st == nil {
		st = s.admit(key, done, cfg)
	}
	st.count++
	st.outSYN++
	s.siftDown(st.idx)
}

func (s *shard) observeSYNACKLocked(key netip.Prefix) {
	if st := s.states[key]; st != nil {
		s.synAcks++
		st.inSYNACK++
	} else {
		s.untracked++
	}
}

func (s *shard) closePeriod(end time.Duration, cfg *core.Config, onReport func(netip.Prefix, core.Report)) {
	s.mu.Lock()
	for _, st := range s.heap {
		r, newAlarm := st.endPeriod(end, cfg)
		if newAlarm {
			s.alarmed++
		}
		if onReport != nil {
			onReport(st.key, r)
		}
	}
	s.mu.Unlock()
}

// Tracker is the keyed detection engine. Observe routes records onto
// shards concurrently; ClosePeriod must come from a single caller
// (the pipeline's aggregator) with no Observe in flight for
// deterministic period boundaries — exactly the discipline the
// ingest.Aggregator's single FeedBatch/ClosePeriod caller already has.
type Tracker struct {
	cfg     Config
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
	if _, err := cusum.NewEWMA(cfg.Agent.Alpha); err != nil {
		return nil, fmt.Errorf("sourcetrack: alpha: %w", err)
	}
	if _, err := cusum.New(cfg.Agent.Offset, cfg.Agent.Threshold); err != nil {
		return nil, fmt.Errorf("sourcetrack: detector: %w", err)
	}
	perShard := (cfg.MaxSources + cfg.Shards - 1) / cfg.Shards
	t := &Tracker{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range t.shards {
		t.shards[i] = &shard{
			cap:    perShard,
			states: make(map[netip.Prefix]*keyState, perShard),
		}
	}
	return t, nil
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// keyOf masks an address to the tracker's key prefix.
func (t *Tracker) keyOf(a netip.Addr) (netip.Prefix, bool) {
	if !a.IsValid() {
		return netip.Prefix{}, false
	}
	a = a.Unmap()
	bits := t.cfg.KeyBits
	if a.Is6() {
		bits = 128 - (32 - bits)
	}
	p, err := a.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return p, true
}

// shardIndex routes a key to its lock stripe (inline FNV-1a; no
// per-record allocation).
func (t *Tracker) shardIndex(key netip.Prefix) int {
	if len(t.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	b := key.Addr().As16()
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= uint64(uint8(key.Bits()))
	h *= prime64
	return int(h % uint64(len(t.shards)))
}

func (t *Tracker) shardFor(key netip.Prefix) *shard {
	return t.shards[t.shardIndex(key)]
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
	s := t.shardFor(op.key)
	s.mu.Lock()
	s.applyLocked(op, int(t.periods.Load()), &t.cfg)
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
		key, ok := t.keyOf(r.Src)
		if !ok {
			t.unkeyed.Add(1)
			return feedOp{}, false
		}
		return feedOp{key: key}, true
	case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
		key, ok := t.keyOf(r.Dst)
		if !ok {
			t.unkeyed.Add(1)
			return feedOp{}, false
		}
		return feedOp{key: key, synAck: true}, true
	}
	return feedOp{}, false
}

// applyLocked folds one pre-keyed op into the shard. Callers hold the
// shard lock; done is the tracker's completed-period clock, stable for
// the whole chunk because period closes are excluded while a batch is
// in flight.
func (s *shard) applyLocked(op feedOp, done int, cfg *Config) {
	if op.synAck {
		s.observeSYNACKLocked(op.key)
	} else {
		s.observeSYNLocked(op.key, done, cfg)
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
		si := t.shardIndex(op.key)
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
			s.applyLocked(op, done, &t.cfg)
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
		s.closePeriod(end, &t.cfg.Agent, t.OnReport)
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
// fast-forward from there (see keyState.reset).
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

// Stats sums the per-shard counters.
func (t *Tracker) Stats() TrackerStats {
	st := TrackerStats{Unkeyed: t.unkeyed.Load()}
	for _, s := range t.shards {
		s.mu.Lock()
		st.SYNs += s.syns
		st.SYNACKs += s.synAcks
		st.UntrackedSYNACKs += s.untracked
		st.Evicted += s.evicted
		st.Tracked += len(s.heap)
		st.Alarmed += s.alarmed
		s.mu.Unlock()
	}
	return st
}

// Sources returns the tracked keys ranked most-suspect first: alarmed
// keys, then by CUSUM statistic, SYN count and finally the key itself
// (a total order, so the ranking is deterministic). n > 0 truncates.
func (t *Tracker) Sources(n int) []SourceReport {
	out := make([]SourceReport, 0, 64)
	for _, s := range t.shards {
		s.mu.Lock()
		for _, st := range s.heap {
			out = append(out, st.report())
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, compareSourceReports)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TrackerView is one consistent observation of the tracker: the period
// clock, stats and ranked source list all describe the same instant —
// no period close can land between them. It is what /sources serves.
type TrackerView struct {
	Periods int
	Stats   TrackerStats
	Sources []SourceReport
}

// View captures a consistent view of the tracker in a single sweep.
// Unlike calling Periods, Stats and Sources back to back, the three
// parts cannot straddle a ClosePeriod: the whole collection runs under
// the shared sweep lock, touching each shard's lock exactly once. Every
// tracked key is collected; limit > 0 truncates the ranked list (the
// stats still describe the full population).
func (t *Tracker) View(limit int) TrackerView {
	t.sweepMu.RLock()
	v := TrackerView{
		Periods: int(t.periods.Load()),
		Stats:   TrackerStats{Unkeyed: t.unkeyed.Load()},
		Sources: make([]SourceReport, 0, 64),
	}
	for _, s := range t.shards {
		s.mu.Lock()
		v.Stats.SYNs += s.syns
		v.Stats.SYNACKs += s.synAcks
		v.Stats.UntrackedSYNACKs += s.untracked
		v.Stats.Evicted += s.evicted
		v.Stats.Tracked += len(s.heap)
		v.Stats.Alarmed += s.alarmed
		for _, st := range s.heap {
			v.Sources = append(v.Sources, st.report())
		}
		s.mu.Unlock()
	}
	t.sweepMu.RUnlock()
	slices.SortFunc(v.Sources, compareSourceReports)
	if limit > 0 && len(v.Sources) > limit {
		v.Sources = v.Sources[:limit]
	}
	return v
}

func compareSourceReports(a, b SourceReport) int {
	if a.Alarmed != b.Alarmed {
		if a.Alarmed {
			return -1
		}
		return 1
	}
	if a.Y != b.Y {
		if a.Y > b.Y {
			return -1
		}
		return 1
	}
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	if c := a.Key.Addr().Compare(b.Key.Addr()); c != 0 {
		return c
	}
	return a.Key.Bits() - b.Key.Bits()
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
