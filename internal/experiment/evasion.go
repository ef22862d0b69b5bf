package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/evasion"
	"repro/internal/eventsim"
	"repro/internal/ingest"
	"repro/internal/mitigate"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// This file closes the loop the paper's Section 4.2.3 sketches but
// never measures: alarm → attribute → mitigate → score. Each
// adversarial scenario from internal/evasion is replayed through the
// ingest pipeline with the keyed tracker tapped in; the aggregate
// alarm triggers mitigation at the stub egress — token buckets scoped
// to the attributed prefixes when attribution produced any, a blanket
// bucket over all victim-bound SYNs when the attacker defeated keying
// — and the outcome is scored where it matters: the victim's TCP
// accept queue, as the fraction of legitimate handshakes that still
// complete, next to the fraction of attack SYNs that still pass.
//
// Everything is seed-deterministic (exact-grid attacks, event-driven
// victim), so the emitted matrix is byte-identical across runs of the
// same seed: a regression battery over the detector's own blind spots.

// Tracker sizing for the matrix: small enough that the many-source
// scenarios overflow Space-Saving admission by design.
const evasionMaxSources = 128

// evasionMitigation fixes the response policy: attributed keys are
// squeezed to nearly nothing (they are named attack prefixes), while
// the blanket fallback throttles all victim-bound SYNs to the
// detection floor — the softest response that still caps the flood.
const (
	evasionPerKeyRate   = 0.1
	evasionPerKeyBurst  = 1
	evasionBlanketBurst = 5
)

// attrStep is one post-alarm attribution snapshot: the alarmed key set
// as of the period closing at End. Alarms latch, so successive steps
// only grow — the mitigation gate consults the newest step at or
// before each packet's timestamp, making the loop closed in simulated
// time rather than oracle-fed.
type attrStep struct {
	end  time.Duration
	keys map[netip.Prefix]bool
}

// evasionTap wires the keyed tracker into the aggregator and records
// the attribution timeline. The aggregator folds the aggregate
// detector before calling ClosePeriod, so each snapshot sees detector
// and tracker state through the same period boundary.
type evasionTap struct {
	tracker *sourcetrack.Tracker
	det     core.Detector
	steps   []attrStep
}

func (t *evasionTap) RecordBatch(recs []trace.Record) { t.tracker.RecordBatch(recs) }

func (t *evasionTap) ClosePeriod(index int, end time.Duration) {
	t.tracker.ClosePeriod(index, end)
	if !t.det.Alarmed() {
		return
	}
	keys := make(map[netip.Prefix]bool)
	for _, s := range t.tracker.Sources(0) {
		if s.Alarmed {
			keys[s.Key] = true
		}
	}
	t.steps = append(t.steps, attrStep{end: end, keys: keys})
}

// egressGate is the leaf router's post-alarm response: it decides each
// outbound victim-bound SYN against the attribution timeline.
type egressGate struct {
	alarmed bool
	alarmAt time.Duration
	steps   []attrStep
	keyBits int

	perKey  map[netip.Prefix]*mitigate.TokenBucket
	blanket *mitigate.TokenBucket
}

func newEgressGate(alarm *core.Alarm, steps []attrStep, keyBits int, blanketRate float64) (*egressGate, error) {
	g := &egressGate{
		steps:   steps,
		keyBits: keyBits,
		perKey:  make(map[netip.Prefix]*mitigate.TokenBucket),
	}
	if alarm != nil {
		g.alarmed = true
		g.alarmAt = alarm.At
	}
	var err error
	g.blanket, err = mitigate.NewTokenBucket(blanketRate, evasionBlanketBurst)
	return g, err
}

// mode names the response the gate settled on once the alarm fired.
func (g *egressGate) mode() string {
	if !g.alarmed {
		return "none"
	}
	if len(g.steps) > 0 && len(g.steps[0].keys) > 0 {
		return "keyed"
	}
	return "blanket"
}

// allow decides one outbound SYN toward the victim.
func (g *egressGate) allow(now time.Duration, src netip.Addr) bool {
	if !g.alarmed || now < g.alarmAt {
		return true
	}
	keys := map[netip.Prefix]bool(nil)
	for i := len(g.steps) - 1; i >= 0; i-- {
		if g.steps[i].end <= now {
			keys = g.steps[i].keys
			break
		}
	}
	if len(keys) == 0 && len(g.steps) > 0 {
		keys = g.steps[0].keys
	}
	if len(keys) > 0 {
		key, err := src.Prefix(g.keyBits)
		if err != nil || !keys[key] {
			return true // unattributed sources pass untouched
		}
		b, ok := g.perKey[key]
		if !ok {
			b, err = mitigate.NewTokenBucket(evasionPerKeyRate, evasionPerKeyBurst)
			if err != nil {
				return true
			}
			g.perKey[key] = b
		}
		return b.Allow(now)
	}
	return g.blanket.Allow(now)
}

// victimSYN is one outbound SYN aimed at the victim, as the egress
// gate and the accept-queue simulation see it.
type victimSYN struct {
	ts      time.Duration
	src     netip.Addr
	srcPort uint16
	legit   bool
}

// evasionOutcome is one scenario's scored row.
type evasionOutcome struct {
	name       string
	meanRate   float64
	detected   bool
	falseAlarm bool
	ttd        int // periods after onset; valid when detected
	precision  float64
	recall     float64
	attributed int
	mode       string
	attackSeen int // attack SYNs inside the mitigation window
	attackPass float64
	attempted  int
	survival   float64
	evicted    uint64
}

// evasionScenarioSpec binds a scenario name to its generator so the
// matrix rows stay in a fixed, documented order.
type evasionScenarioSpec struct {
	name string
	gen  func() (*evasion.Scenario, error)
}

// AblationEvasion runs the adversarial scenario matrix: each scenario
// merged into the same Auckland-like background plus a legitimate
// victim-bound client stream, detected by the aggregate agent with the
// keyed tracker attached, mitigated at the egress from the moment the
// alarm fires, and scored at the victim's accept queue. One
// deterministic run per scenario (Options.Runs does not apply): the
// scenarios are exact schedules and the point of the matrix is a
// reproducible regression battery, not a Monte-Carlo average.
func AblationEvasion(opts Options) ([]Artifact, error) {
	opts.applyDefaults()
	span := 20 * time.Minute
	onset := 8 * time.Minute
	attackDur := 8 * time.Minute
	if opts.Fast {
		span = 10 * time.Minute
		onset = 4 * time.Minute
		attackDur = 4 * time.Minute
	}
	agentCfg := core.Config{}.Normalized()
	design := cusum.Design{
		Offset:      agentCfg.Offset,
		MinIncrease: 2 * agentCfg.Offset,
		Threshold:   agentCfg.Threshold,
	}

	p := trace.Auckland()
	p.Span = span
	bg, err := trace.Generate(p, seedFor(opts.Seed, "evasion-bg"))
	if err != nil {
		return nil, err
	}
	kbar, err := backgroundKBar(bg, agentCfg.T0)
	if err != nil {
		return nil, err
	}
	fmin := design.MinFloodRate(kbar, agentCfg.T0.Seconds())

	params := evasion.Params{
		Victim:     victimAddr,
		VictimPort: 80,
		Onset:      onset,
		Duration:   attackDur,
		T0:         agentCfg.T0,
		KeyBits:    sourcetrack.DefaultKeyBits,
		Seed:       seedFor(opts.Seed, "evasion-scenarios"),
	}
	rtt := p.MeanRTT
	clients, handshakes, err := evasion.VictimClients(params, p.Prefix, 1, rtt, span)
	if err != nil {
		return nil, err
	}
	base := trace.Merge(bg.Name+"+clients", bg, clients)

	surge := 5 * kbar / agentCfg.T0.Seconds()
	specs := []evasionScenarioSpec{
		{"single-source", func() (*evasion.Scenario, error) {
			return evasion.SingleSource(params, 6*fmin)
		}},
		{"pulse-under-fmin", func() (*evasion.Scenario, error) {
			return evasion.PulsingUnderFmin(params, design, kbar, 0.7, 10)
		}},
		{"pulse-under-delay", func() (*evasion.Scenario, error) {
			return evasion.PulsingUnderDelay(params, design, kbar, 2.5)
		}},
		{"slow-drip", func() (*evasion.Scenario, error) {
			return evasion.SlowDrip(params, 6*fmin, 4*evasionMaxSources)
		}},
		{"spoof-churn", func() (*evasion.Scenario, error) {
			return evasion.SpoofChurn(params, 6*fmin)
		}},
		{"flash-crowd", func() (*evasion.Scenario, error) {
			return evasion.FlashCrowd(params, p.Prefix, surge, rtt)
		}},
	}

	outs, err := collect(opts.Parallelism, len(specs), func(i int) (evasionOutcome, error) {
		sc, err := specs[i].gen()
		if err != nil {
			return evasionOutcome{}, err
		}
		return scoreEvasionScenario(sc, base, handshakes, agentCfg, params, span, onset, attackDur, rtt, fmin)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "evasion",
		Title: fmt.Sprintf("Adversarial scenario matrix with closed-loop mitigation (Auckland background, fmin = %.2f SYN/s, K = %d tracked keys)",
			fmin, evasionMaxSources),
		Columns: []string{"Scenario", "Attack SYN/s", "Alarm", "TTD (t0)", "Attr. Precision",
			"Attr. Recall", "Mitigation", "Attack Pass", "Legit Survival", "Evictions"},
	}
	for _, o := range outs {
		alarm := "no"
		ttd := "-"
		switch {
		case o.falseAlarm:
			alarm = "false"
		case o.detected:
			alarm = "yes"
			if o.ttd < 1 {
				ttd = "<1"
			} else {
				ttd = fmt.Sprintf("%d", o.ttd)
			}
		}
		prec, rec := "-", "-"
		if o.detected || o.falseAlarm {
			if o.attributed > 0 {
				prec = fmt.Sprintf("%.2f", o.precision)
			}
			rec = fmt.Sprintf("%.2f", o.recall)
		}
		pass := "-"
		if o.attackSeen > 0 && (o.detected || o.falseAlarm) {
			pass = fmt.Sprintf("%.2f", o.attackPass)
		}
		t.Rows = append(t.Rows, []string{
			o.name,
			fmt.Sprintf("%.2f", o.meanRate),
			alarm,
			ttd,
			prec,
			rec,
			o.mode,
			pass,
			fmt.Sprintf("%.2f", o.survival),
			fmt.Sprintf("%d", o.evicted),
		})
	}
	return []Artifact{t}, nil
}

// scoreEvasionScenario runs one scenario through detection,
// attribution, mitigation and the victim's accept queue.
func scoreEvasionScenario(sc *evasion.Scenario, base *trace.Trace, handshakes []evasion.Handshake,
	agentCfg core.Config, params evasion.Params, span, onset, attackDur time.Duration,
	rtt time.Duration, fmin float64) (evasionOutcome, error) {

	mixed := trace.Merge(base.Name+"+"+sc.Name, base, sc.Attack)
	if mixed.Span > span {
		mixed.ClipSpan(span)
	}

	// Detection + attribution pass: the streaming pipeline with the
	// keyed tracker tapped in, snapshotting alarmed keys at every
	// period boundary after the aggregate alarm.
	det, err := core.NewAgent(core.Config{})
	if err != nil {
		return evasionOutcome{}, err
	}
	tracker, err := sourcetrack.New(sourcetrack.Config{
		KeyBits:    params.KeyBits,
		MaxSources: evasionMaxSources,
		Agent:      core.Config{},
	})
	if err != nil {
		return evasionOutcome{}, err
	}
	tap := &evasionTap{tracker: tracker, det: det}
	pipe := &ingest.Pipeline{
		Source:   ingest.NewTraceSource(mixed),
		Detector: det,
		T0:       agentCfg.T0,
		Span:     span,
		Tap:      tap,
	}
	if err := pipe.Run(); err != nil {
		return evasionOutcome{}, err
	}

	out := evasionOutcome{name: sc.Name, meanRate: sc.MeanRate, evicted: tracker.Stats().Evicted}
	onsetP := int(onset / agentCfg.T0)
	endP := int((onset + attackDur) / agentCfg.T0)
	alarm := det.FirstAlarm()
	if alarm != nil {
		switch {
		case alarm.Period < onsetP:
			out.falseAlarm = true
		case alarm.Period <= endP+1:
			out.detected = true
			out.ttd = alarm.Period - onsetP
		}
	}

	// Attribution scored on the snapshot the operator acts on: the
	// alarmed key set at the moment the aggregate alarm latched.
	truth := sc.TruthSet()
	if alarm != nil && len(tap.steps) > 0 {
		acted := tap.steps[0].keys
		out.attributed = len(acted)
		hits := 0
		for k := range acted {
			if truth[k] {
				hits++
			}
		}
		if out.attributed > 0 {
			out.precision = float64(hits) / float64(out.attributed)
		}
		if len(truth) > 0 {
			out.recall = float64(hits) / float64(len(truth))
		}
	}

	// Mitigation + accept-queue pass.
	gate, err := newEgressGate(alarm, tap.steps, params.KeyBits, fmin)
	if err != nil {
		return evasionOutcome{}, err
	}
	out.mode = gate.mode()

	events := make([]victimSYN, 0, len(handshakes)+len(sc.Attack.Records))
	for _, h := range handshakes {
		events = append(events, victimSYN{ts: h.Ts, src: h.Src, srcPort: h.SrcPort, legit: true})
	}
	for _, r := range sc.Attack.Records {
		if r.Kind == packet.KindSYN && r.Dst == victimAddr && r.Ts < span {
			events = append(events, victimSYN{ts: r.Ts, src: r.Src, srcPort: r.SrcPort})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].ts < events[j].ts })

	survival, attempted, attackPass, attackSeen, err := acceptQueueScore(events, gate, onset, onset+attackDur, rtt)
	if err != nil {
		return evasionOutcome{}, err
	}
	out.survival = survival
	out.attempted = attempted
	out.attackPass = attackPass
	out.attackSeen = attackSeen
	return out, nil
}

// acceptQueueScore replays the victim-bound SYN stream against a real
// TCP accept queue under the egress gate. Legitimate clients complete
// their handshakes (ACK one RTT after the SYN/ACK); spoofed attack
// sources are unreachable and never answer, which is exactly how they
// exhaust the backlog. Survival is the fraction of legitimate attempts
// inside the attack window that reach ESTABLISHED; attack pass is the
// fraction of attack SYNs inside the mitigation window that the gate
// let through to the victim.
func acceptQueueScore(events []victimSYN, gate *egressGate, windowStart, windowEnd time.Duration,
	rtt time.Duration) (survival float64, attempted int, attackPass float64, attackSeen int, err error) {

	sim := eventsim.New()
	type peerKey struct {
		addr netip.Addr
		port uint16
	}
	legitAt := make(map[peerKey]time.Duration)
	established := 0

	var server *tcp.Server
	send := func(seg packet.Segment) {
		if seg.Kind() != packet.KindSYNACK {
			return
		}
		peer := peerKey{addr: seg.IP.Dst, port: seg.TCP.DstPort}
		if _, ok := legitAt[peer]; !ok {
			return // spoofed source: no host there to answer
		}
		ack := packet.Build(seg.IP.Dst, seg.IP.Src, seg.TCP.DstPort, seg.TCP.SrcPort,
			seg.TCP.Ack, seg.TCP.Seq+1, packet.FlagACK)
		sim.After(rtt, func(now time.Duration) {
			server.Deliver(now, ack)
		})
	}
	server, err = tcp.NewServer(sim, victimAddr, 80, send, tcp.ServerConfig{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	server.OnEstablished = func(now time.Duration, peer netip.Addr, peerPort uint16) {
		ts, ok := legitAt[peerKey{addr: peer, port: peerPort}]
		if ok && ts >= windowStart && ts < windowEnd {
			established++
		}
	}

	attackAllowed := 0
	for _, e := range events {
		e := e
		if e.legit {
			legitAt[peerKey{addr: e.src, port: e.srcPort}] = e.ts
			if e.ts >= windowStart && e.ts < windowEnd {
				attempted++
			}
		}
		if _, err := sim.At(e.ts, func(now time.Duration) {
			if !gate.allow(now, e.src) {
				return
			}
			if !e.legit && gate.alarmed && now >= gate.alarmAt {
				attackAllowed++
			}
			syn := packet.Build(e.src, victimAddr, e.srcPort, 80, 1, 0, packet.FlagSYN)
			server.Deliver(now, syn)
		}); err != nil {
			return 0, 0, 0, 0, err
		}
		if !e.legit && gate.alarmed && e.ts >= gate.alarmAt {
			attackSeen++
		}
	}
	sim.Run()

	if attempted > 0 {
		survival = float64(established) / float64(attempted)
	} else {
		survival = 1
	}
	if attackSeen > 0 {
		attackPass = float64(attackAllowed) / float64(attackSeen)
	}
	return survival, attempted, attackPass, attackSeen, nil
}
