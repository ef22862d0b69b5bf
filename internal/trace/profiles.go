package trace

import (
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/arrival"
	"repro/internal/packet"
)

// Profile parameterizes a synthetic site trace. The four predefined
// profiles (LBL, Harvard, UNC, Auckland) are calibrated to the levels
// and durations the paper reports; see DESIGN.md for the mapping.
type Profile struct {
	// Name labels the generated trace.
	Name string
	// Span is the capture duration (Table 1).
	Span time.Duration
	// Bidirectional marks sites whose figures aggregate both directions
	// (LBL, Harvard); uni-directional pairs (UNC, Auckland) still
	// generate both directions but are reported split.
	Bidirectional bool
	// OutConnRate is the mean rate of new outbound connections per
	// second (each produces one outgoing SYN and usually one incoming
	// SYN/ACK).
	OutConnRate float64
	// InConnRate is the mean rate of inbound connections per second
	// (servers inside the stub): one incoming SYN, one outgoing
	// SYN/ACK. Zero for client-dominated stubs.
	InConnRate float64
	// Sources, Shape, MeanOn, MeanOff parameterize the self-similar
	// ON/OFF arrival superposition (see internal/arrival).
	Sources         int
	Shape           float64
	MeanOn, MeanOff float64
	// ResponseProb is the probability a SYN is answered by a SYN/ACK;
	// the remainder models server overload and forward-path congestion
	// (the paper's two discrepancy causes, Section 1).
	ResponseProb float64
	// MeanRTT is the median round-trip time for SYN -> SYN/ACK.
	MeanRTT time.Duration
	// RTTSigma is the lognormal spread of RTTs (0 = constant RTT).
	RTTSigma float64
	// DiurnalAmp, if nonzero, modulates arrival intensity sinusoidally
	// over the span (slow time-of-day drift).
	DiurnalAmp float64
	// Prefix is the stub network block client addresses come from.
	Prefix netip.Prefix
	// WithTeardown adds FIN records at connection close, exercising
	// classifiers beyond the SYN path.
	WithTeardown bool
	// OutagesPerHour, OutageMeanDur and OutageResponseProb model the
	// paper's two benign discrepancy causes (Section 1: overloaded
	// servers and congested forward paths) as rare windows during
	// which the response probability drops to OutageResponseProb.
	// They produce the isolated small yn spikes of Figure 5. Zero
	// OutagesPerHour disables outages.
	OutagesPerHour     float64
	OutageMeanDur      time.Duration
	OutageResponseProb float64
}

// outageWindow is one degraded-response interval.
type outageWindow struct {
	start, end time.Duration
}

// Predefined profiles. The calibration targets (per 20 s observation
// period): LBL ≈ 25 SYN/ACKs, Harvard ≈ 300, UNC ≈ 2114 (fmin ≈ 37
// SYN/s by Eq. 8), Auckland ≈ 100 (fmin ≈ 1.75 SYN/s).
func LBL() Profile {
	return Profile{
		Name:               "LBL",
		Span:               time.Hour,
		Bidirectional:      true,
		OutConnRate:        25.0 / 0.97 / 20, // ≈1.29 conn/s
		InConnRate:         0.6,
		Sources:            8,
		Shape:              1.5,
		MeanOn:             1.0,
		MeanOff:            2.0,
		ResponseProb:       0.97,
		MeanRTT:            120 * time.Millisecond,
		RTTSigma:           0.6,
		DiurnalAmp:         0.15,
		Prefix:             netip.MustParsePrefix("131.243.0.0/16"),
		WithTeardown:       true,
		OutagesPerHour:     1,
		OutageMeanDur:      8 * time.Second,
		OutageResponseProb: 0.85,
	}
}

// Harvard is the 1997 half-hour campus trace profile.
func Harvard() Profile {
	return Profile{
		Name:               "Harvard",
		Span:               30 * time.Minute,
		Bidirectional:      true,
		OutConnRate:        300.0 / 0.97 / 20, // ≈15.5 conn/s
		InConnRate:         3.0,
		Sources:            16,
		Shape:              1.4,
		MeanOn:             1.0,
		MeanOff:            2.0,
		ResponseProb:       0.97,
		MeanRTT:            100 * time.Millisecond,
		RTTSigma:           0.6,
		DiurnalAmp:         0.1,
		Prefix:             netip.MustParsePrefix("128.103.0.0/16"),
		WithTeardown:       true,
		OutagesPerHour:     2,
		OutageMeanDur:      10 * time.Second,
		OutageResponseProb: 0.9,
	}
}

// UNC is the 2000 OC-12 campus trace profile; its K̄ ≈ 2114 SYN/ACKs
// per 20 s sets the paper's fmin ≈ 37 SYN/s.
func UNC() Profile {
	return Profile{
		Name:               "UNC",
		Span:               30 * time.Minute,
		Bidirectional:      false,
		OutConnRate:        2114.0 / 0.97 / 20, // ≈109 conn/s
		InConnRate:         0,
		Sources:            64,
		Shape:              1.4,
		MeanOn:             1.0,
		MeanOff:            2.0,
		ResponseProb:       0.97,
		MeanRTT:            80 * time.Millisecond,
		RTTSigma:           0.5,
		DiurnalAmp:         0.08,
		Prefix:             netip.MustParsePrefix("152.2.0.0/16"),
		WithTeardown:       true,
		OutagesPerHour:     1,
		OutageMeanDur:      10 * time.Second,
		OutageResponseProb: 0.85,
	}
}

// Auckland is the 2000 three-hour access-link trace profile; its
// K̄ ≈ 100 per 20 s sets fmin = 1.75 SYN/s.
func Auckland() Profile {
	return Profile{
		Name:               "Auckland",
		Span:               3 * time.Hour,
		Bidirectional:      false,
		OutConnRate:        100.0 / 0.97 / 20, // ≈5.15 conn/s
		InConnRate:         0,
		Sources:            12,
		Shape:              1.3,
		MeanOn:             1.5,
		MeanOff:            3.0,
		ResponseProb:       0.97,
		MeanRTT:            180 * time.Millisecond,
		RTTSigma:           0.7,
		DiurnalAmp:         0.2,
		Prefix:             netip.MustParsePrefix("130.216.0.0/16"),
		WithTeardown:       true,
		OutagesPerHour:     1.5,
		OutageMeanDur:      12 * time.Second,
		OutageResponseProb: 0.8,
	}
}

// Profiles returns all predefined site profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{LBL(), Harvard(), UNC(), Auckland()}
}

// clientRetransmits mirrors the client SYN retransmission schedule
// used when a SYN goes unanswered (3 s, then 9 s after the original).
var clientRetransmits = []time.Duration{3 * time.Second, 9 * time.Second}

// Generate synthesizes a trace for the profile using the given seed.
// The result is sorted and validated.
func Generate(p Profile, seed int64) (*Trace, error) {
	if p.Span <= 0 || p.OutConnRate <= 0 || p.Sources < 1 {
		return nil, errors.New("trace: invalid profile")
	}
	if p.ResponseProb <= 0 || p.ResponseProb > 1 {
		return nil, errors.New("trace: ResponseProb outside (0,1]")
	}
	if !p.Prefix.IsValid() || !p.Prefix.Addr().Is4() {
		return nil, errors.New("trace: Prefix is not an IPv4 prefix")
	}
	if p.MeanRTT < 0 {
		return nil, errors.New("trace: negative MeanRTT")
	}
	rng := rand.New(rand.NewSource(seed))
	outages := drawOutages(p, rng)

	outStarts, err := connectionStarts(p, p.OutConnRate, rng)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Name: p.Name, Span: p.Span, Records: emitDirection(p, rng, outStarts, DirOut, outages)}
	if p.InConnRate > 0 {
		inStarts, err := connectionStarts(p, p.InConnRate, rng)
		if err != nil {
			return nil, err
		}
		in := &Trace{Span: p.Span, Records: emitDirection(p, rng, inStarts, DirIn, outages)}
		// Outbound connections are drawn first, so their records go
		// first on ties: exactly Merge's tie rule.
		tr = Merge(p.Name, tr, in)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// emitDirection synthesizes the connections whose SYNs travel in
// synDir, one per start, and returns their records in timestamp order.
func emitDirection(p Profile, rng *rand.Rand, starts []time.Duration, synDir Direction, outages []outageWindow) []Record {
	perConn := 1 + len(clientRetransmits) // an unanswered SYN and its retransmits
	if p.WithTeardown {
		perConn = max(perConn, 4) // SYN, SYN/ACK and two FINs
	}
	capacity := perConn * len(starts)
	e := newEmitter(p.Span, capacity, calendarShift(p.Span, capacity))
	for _, t := range starts {
		e.advance(t)
		emitConnection(e, p, rng, t, synDir, responseProbAt(p, outages, t))
	}
	return e.finish()
}

// connectionStarts draws the connection start times for one direction.
func connectionStarts(p Profile, rate float64, rng *rand.Rand) ([]time.Duration, error) {
	base, err := arrival.NewParetoOnOff(arrival.ParetoConfig{
		Sources:  p.Sources,
		MeanRate: rate * diurnalOversample(p),
		Shape:    p.Shape,
		MeanOn:   p.MeanOn,
		MeanOff:  p.MeanOff,
	}, rng)
	if err != nil {
		return nil, err
	}
	var proc arrival.Process = base
	if p.DiurnalAmp > 0 {
		env := arrival.DiurnalEnvelope(p.Span, p.DiurnalAmp)
		proc, err = arrival.NewModulated(base, env, 1+p.DiurnalAmp, rng)
		if err != nil {
			return nil, err
		}
	}
	return arrival.Collect(proc, p.Span-1), nil
}

// diurnalOversample compensates the thinning loss of the diurnal
// envelope so the long-run mean stays on target.
func diurnalOversample(p Profile) float64 {
	if p.DiurnalAmp <= 0 {
		return 1
	}
	return 1 + p.DiurnalAmp
}

// drawOutages samples the degraded-response windows for one trace:
// a Poisson number of outages, exponentially distributed durations,
// uniformly placed starts.
func drawOutages(p Profile, rng *rand.Rand) []outageWindow {
	if p.OutagesPerHour <= 0 || p.OutageMeanDur <= 0 {
		return nil
	}
	expected := p.OutagesPerHour * p.Span.Hours()
	count := poissonDraw(rng, expected)
	windows := make([]outageWindow, 0, count)
	for i := 0; i < count; i++ {
		start := time.Duration(rng.Int63n(int64(p.Span)))
		dur := time.Duration(rng.ExpFloat64() * float64(p.OutageMeanDur))
		// Cap at 2.5x the mean: an uncapped exponential tail could
		// mute responses long enough to imitate a real flood, which
		// would contradict the Figure 5 zero-false-alarm calibration.
		if maxDur := 5 * p.OutageMeanDur / 2; dur > maxDur {
			dur = maxDur
		}
		windows = append(windows, outageWindow{start: start, end: start + dur})
	}
	return windows
}

// poissonDraw samples a Poisson count by inversion (small means only).
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // guard against pathological means
			return k
		}
	}
}

// responseProbAt returns the response probability for a SYN at time t,
// honoring any outage window covering t.
func responseProbAt(p Profile, outages []outageWindow, t time.Duration) float64 {
	for _, w := range outages {
		if t >= w.start && t < w.end {
			return p.OutageResponseProb
		}
	}
	return p.ResponseProb
}

// emitConnection emits the records of one connection whose SYN
// travels in synDir. For synDir == DirOut the SYN leaves the stub and
// the SYN/ACK comes back in; for DirIn the roles flip. respProb is
// the (possibly outage-degraded) probability of a SYN/ACK reply.
func emitConnection(e *emitter, p Profile, rng *rand.Rand, start time.Duration, synDir Direction, respProb float64) {
	inside := randomAddrIn(p.Prefix, rng)
	outside := randomExternalAddr(rng)
	var src, dst netip.Addr
	if synDir == DirOut {
		src, dst = inside, outside
	} else {
		src, dst = outside, inside
	}
	srcPort := ephemeralPort(rng)
	const dstPort = 80
	replyDir := flip(synDir)

	e.emit(Record{
		Ts: start, Kind: packet.KindSYN, Dir: synDir,
		Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
	})

	if rng.Float64() >= respProb {
		// Unanswered SYN: the client retransmits on the standard
		// schedule; the extra SYNs also go unanswered. This is the
		// benign source of SYN > SYN/ACK discrepancy.
		for _, delay := range clientRetransmits {
			e.emit(Record{
				Ts: start + delay, Kind: packet.KindSYN, Dir: synDir,
				Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
			})
		}
		return
	}

	rtt := sampleRTT(p, rng)
	e.emit(Record{
		Ts: start + rtt, Kind: packet.KindSYNACK, Dir: replyDir,
		Src: dst, Dst: src, SrcPort: dstPort, DstPort: srcPort,
	})

	if p.WithTeardown {
		// Connection lifetime: lognormal around 15 s.
		life := time.Duration(math.Exp(math.Log(15)+rng.NormFloat64()) * float64(time.Second))
		end := start + rtt + life
		e.emit(Record{
			Ts: end, Kind: packet.KindFIN, Dir: synDir,
			Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
		})
		e.emit(Record{
			Ts: end + rtt, Kind: packet.KindFIN, Dir: replyDir,
			Src: dst, Dst: src, SrcPort: dstPort, DstPort: srcPort,
		})
	}
}

// slotShift is log2 of the emitter's calendar slot width in
// nanoseconds: 2^26 ns ≈ 67 ms. The width sets only the speed, never
// the output. Deferred records wait 80–180 ms for a SYN/ACK, 3 s and
// 9 s for a retransmit and ~15 s for a FIN, so most of them sit in a
// list for many slots, and the heap holds only the few dozen of one
// UNC slot.
const slotShift = 26

// pendingCap caps the starting capacity of the emitter's record slab.
// A one-minute UNC trace defers at most ~3.1k records at once, so it
// never grows it; the full 30-minute UNC span peaks near 6.5k.
const pendingCap = 4096

// readyCap is the starting capacity of the emitter's ready heap: the
// full UNC span holds at most ~50 records in it at once.
const readyCap = 64

// emitter collects one direction's records in timestamp order as
// connections are drawn, so no sort follows generation. Connection
// starts never decrease and no record precedes its own connection's
// start, so a record at or before the current start is final and goes
// straight to out. A later one (SYN/ACK, retransmit, FIN) is deferred
// into a calendar: one list per fixed time slot across the span,
// threaded through a record slab. When a start reaches a slot, that
// slot's records move into a small min-heap keyed by (Ts, emission
// sequence), which releases every record at or before the start.
// Equal timestamps leave in emission order, which is exactly what a
// stable sort of the emission sequence produces.
type emitter struct {
	span  time.Duration
	start time.Duration // start of the connection being emitted
	seq   uint64        // emission sequence of the next deferred record
	out   []Record
	// slots[s] heads the list of deferred records whose Ts>>shift is
	// s; next is the first slot not yet moved into ready. Lists and
	// the free list run through nodes[i].next, and index 0 is the nil
	// sentinel.
	shift uint
	slots []int32
	next  int
	nodes []pendingNode
	free  int32
	// ready is a min-heap on (ts, seq) over the records of loaded
	// slots that are still later than the current start.
	ready []pendingRecord
}

// pendingNode is one slab entry: a deferred record and its place in
// a calendar list or in the free list.
type pendingNode struct {
	rec  Record
	seq  uint64
	next int32
}

// pendingRecord orders the deferred record nodes[node].
type pendingRecord struct {
	ts   time.Duration
	seq  uint64
	node int32
}

// calendarShift returns the slot shift for a direction of at most
// capacity records: slotShift, widened until the calendar has no more
// slots than records, so a sparse span never pays more for its empty
// slots than for its records.
func calendarShift(span time.Duration, capacity int) uint {
	shift := uint(slotShift)
	for (span-1)>>shift >= time.Duration(max(capacity, 1)) {
		shift++
	}
	return shift
}

// newEmitter returns an emitter for at most capacity records in
// [0, span), with calendar slots 2^shift ns wide.
func newEmitter(span time.Duration, capacity int, shift uint) *emitter {
	n := min(capacity, pendingCap)
	return &emitter{
		span:  span,
		out:   make([]Record, 0, capacity),
		shift: shift,
		slots: make([]int32, (span-1)>>shift+1),
		nodes: make([]pendingNode, 1, n+1),
		ready: make([]pendingRecord, 0, min(n, readyCap)),
	}
}

// advance moves to the next connection, starting at start: every
// deferred record at or before it is released first.
func (e *emitter) advance(start time.Duration) {
	e.release(start)
	e.start = start
}

// emit adds r if it falls inside the trace span.
func (e *emitter) emit(r Record) {
	if r.Ts < 0 || r.Ts >= e.span {
		return
	}
	if r.Ts <= e.start {
		e.out = append(e.out, r)
	} else {
		e.hold(r)
	}
}

// finish releases every deferred record and returns the records.
func (e *emitter) finish() []Record {
	e.release(e.span)
	return e.out
}

// release appends every deferred record at or before limit to out in
// (Ts, seq) order. Slots load one at a time, and ready drains to limit
// before the next loads: every record of a later slot is later than
// every record of an earlier one.
func (e *emitter) release(limit time.Duration) {
	last := min(int(limit>>e.shift), len(e.slots)-1)
	for {
		for len(e.ready) > 0 && e.ready[0].ts <= limit {
			e.out = append(e.out, e.pop())
		}
		if e.next > last {
			return
		}
		for i := e.slots[e.next]; i != 0; i = e.nodes[i].next {
			e.push(pendingRecord{ts: e.nodes[i].rec.Ts, seq: e.nodes[i].seq, node: i})
		}
		e.slots[e.next] = 0
		e.next++
	}
}

// hold stores r in the slab and files it under its slot, or straight
// into ready when that slot is already loaded.
func (e *emitter) hold(r Record) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = pendingNode{rec: r, seq: e.seq}
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, pendingNode{rec: r, seq: e.seq})
	}
	if s := int(r.Ts >> e.shift); s >= e.next {
		e.nodes[i].next = e.slots[s]
		e.slots[s] = i
	} else {
		e.push(pendingRecord{ts: r.Ts, seq: e.seq, node: i})
	}
	e.seq++
}

func (e *emitter) less(i, j int) bool {
	a, b := &e.ready[i], &e.ready[j]
	return a.ts < b.ts || (a.ts == b.ts && a.seq < b.seq)
}

func (e *emitter) push(p pendingRecord) {
	e.ready = append(e.ready, p)
	h := e.ready
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the least ready record and frees its slab node.
func (e *emitter) pop() Record {
	h := e.ready
	i := h[0].node
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.ready = h
	for k := 0; ; {
		child := 2*k + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.less(r, child) {
			child = r
		}
		if !e.less(child, k) {
			break
		}
		h[k], h[child] = h[child], h[k]
		k = child
	}
	e.nodes[i].next = e.free
	e.free = i
	return e.nodes[i].rec
}

func flip(d Direction) Direction {
	if d == DirOut {
		return DirIn
	}
	return DirOut
}

// sampleRTT draws a lognormal RTT with median MeanRTT.
func sampleRTT(p Profile, rng *rand.Rand) time.Duration {
	if p.RTTSigma <= 0 {
		return p.MeanRTT
	}
	factor := math.Exp(rng.NormFloat64() * p.RTTSigma)
	return time.Duration(float64(p.MeanRTT) * factor)
}

// randomAddrIn samples a host address inside prefix (never the
// network address itself).
func randomAddrIn(prefix netip.Prefix, rng *rand.Rand) netip.Addr {
	base := prefix.Masked().Addr().As4()
	hostBits := 32 - prefix.Bits()
	if hostBits <= 0 {
		return prefix.Addr()
	}
	span := uint64(1) << hostBits
	off := uint32(rng.Uint64()%(span-1)) + 1
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// randomExternalAddr samples an address in 11.0.0.0/8, disjoint from
// every profile prefix.
func randomExternalAddr(rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{11, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
}

// ephemeralPort samples a client port in [32768, 61000).
func ephemeralPort(rng *rand.Rand) uint16 {
	return uint16(32768 + rng.Intn(61000-32768))
}
