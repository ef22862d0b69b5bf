package core

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trace"
)

func TestNewAgentDefaults(t *testing.T) {
	a, err := NewAgent(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	if cfg.T0 != 20*time.Second {
		t.Errorf("T0 = %v, want 20s", cfg.T0)
	}
	if cfg.Alpha != 0.9 || cfg.Offset != 0.35 || cfg.Threshold != 1.05 || cfg.MinK != 1 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := NewAgent(Config{T0: -time.Second}); err == nil {
		t.Error("negative T0 accepted")
	}
	if _, err := NewAgent(Config{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewAgent(Config{Offset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := NewAgent(Config{MinK: -3}); err == nil {
		t.Error("negative MinK accepted")
	}
}

func TestSnifferCountsAndDrain(t *testing.T) {
	s := NewSniffer(netsim.Outbound)
	if s.Direction() != netsim.Outbound {
		t.Error("direction lost")
	}
	kinds := []packet.Kind{
		packet.KindSYN, packet.KindSYN, packet.KindSYNACK,
		packet.KindFIN, packet.KindRST, packet.KindOther,
	}
	for _, k := range kinds {
		s.Count(k)
	}
	pc := s.Drain()
	if pc.SYN != 2 || pc.SYNACK != 1 || pc.FIN != 1 || pc.RST != 1 {
		t.Errorf("counts = %+v", pc)
	}
	if s.TotalSeen() != 6 {
		t.Errorf("TotalSeen = %d, want 6", s.TotalSeen())
	}
	// Drain resets the period counters but not the lifetime total.
	pc2 := s.Drain()
	if pc2 != (PeriodCounts{}) {
		t.Errorf("second drain = %+v, want zeros", pc2)
	}
	if s.TotalSeen() != 6 {
		t.Error("TotalSeen reset by Drain")
	}
}

// feedPeriods drives the agent with per-period (outSYN, inSYNACK)
// pairs and returns the last report.
func feedPeriods(a *Agent, pairs [][2]uint64) Report {
	var last Report
	for i, p := range pairs {
		for j := uint64(0); j < p[0]; j++ {
			a.Observe(netsim.Outbound, packet.KindSYN)
		}
		for j := uint64(0); j < p[1]; j++ {
			a.Observe(netsim.Inbound, packet.KindSYNACK)
		}
		last = a.EndPeriod(time.Duration(i+1) * a.Config().T0)
	}
	return last
}

func TestNormalTrafficKeepsStatisticAtZero(t *testing.T) {
	a, _ := NewAgent(Config{})
	pairs := make([][2]uint64, 50)
	for i := range pairs {
		pairs[i] = [2]uint64{105, 100} // small benign discrepancy
	}
	last := feedPeriods(a, pairs)
	if a.Alarmed() {
		t.Fatal("false alarm on benign traffic")
	}
	if last.Y != 0 {
		t.Errorf("yn = %v, want 0 (X=0.05 < a)", last.Y)
	}
	if math.Abs(a.KBar()-100) > 1e-6 {
		t.Errorf("K̄ = %v, want 100", a.KBar())
	}
}

func TestFloodRaisesAlarmInDesignedTime(t *testing.T) {
	a, _ := NewAgent(Config{})
	// 10 benign periods to prime K̄ at 100.
	benign := make([][2]uint64, 10)
	for i := range benign {
		benign[i] = [2]uint64{100, 100}
	}
	feedPeriods(a, benign)
	if a.Alarmed() {
		t.Fatal("premature alarm")
	}
	// Flood: +70 spoofed SYNs per period (drift h = 0.7 = 2a). The
	// designed detection time is 3 periods... the crossing requires
	// yn > 1.05, reached at the 4th flood period (4*0.35=1.4).
	flood := make([][2]uint64, 6)
	for i := range flood {
		flood[i] = [2]uint64{170, 100}
	}
	feedPeriods(a, flood)
	if !a.Alarmed() {
		t.Fatal("flood not detected")
	}
	al := a.FirstAlarm()
	if al.Period != 13 { // periods 0-9 benign; flood starts at 10; alarm at 10+3
		t.Errorf("alarm period = %d, want 13", al.Period)
	}
	// feedPeriods numbers its timestamps from its own start, so the
	// alarm lands at the 4th flood period's end: 80s into the flood.
	if al.At != 80*time.Second {
		t.Errorf("alarm at %v, want 80s", al.At)
	}
}

func TestOnAlarmFiresExactlyOnce(t *testing.T) {
	a, _ := NewAgent(Config{})
	fired := 0
	a.OnAlarm = func(Alarm) { fired++ }
	flood := make([][2]uint64, 20)
	for i := range flood {
		flood[i] = [2]uint64{200, 100}
	}
	feedPeriods(a, flood)
	if fired != 1 {
		t.Errorf("OnAlarm fired %d times, want 1", fired)
	}
}

func TestKBarUnaffectedByFlood(t *testing.T) {
	// The flood adds outgoing SYNs but no incoming SYN/ACKs, so K̄ must
	// hold its baseline — that is why normalization stays meaningful
	// during the attack.
	a, _ := NewAgent(Config{})
	benign := make([][2]uint64, 20)
	for i := range benign {
		benign[i] = [2]uint64{100, 100}
	}
	feedPeriods(a, benign)
	before := a.KBar()
	flood := make([][2]uint64, 10)
	for i := range flood {
		flood[i] = [2]uint64{5000, 100}
	}
	feedPeriods(a, flood)
	if math.Abs(a.KBar()-before) > 1e-6 {
		t.Errorf("K̄ moved from %v to %v during flood", before, a.KBar())
	}
}

func TestMinKFloorsNormalization(t *testing.T) {
	// On an idle link (zero SYN/ACKs) the normalizer must not divide
	// by zero; with MinK=1, X equals the raw SYN count.
	a, _ := NewAgent(Config{})
	r := feedPeriods(a, [][2]uint64{{5, 0}})
	if r.X != 5 {
		t.Errorf("X = %v, want 5 (Δ/MinK)", r.X)
	}
}

func TestResetClearsAlarmKeepsKBar(t *testing.T) {
	a, _ := NewAgent(Config{})
	flood := make([][2]uint64, 10)
	for i := range flood {
		flood[i] = [2]uint64{300, 100}
	}
	feedPeriods(a, flood)
	if !a.Alarmed() {
		t.Fatal("no alarm to reset")
	}
	k := a.KBar()
	a.Reset()
	if a.Alarmed() || a.FirstAlarm() != nil {
		t.Error("Reset did not clear alarm")
	}
	if a.KBar() != k {
		t.Error("Reset clobbered K̄")
	}
}

func TestStatisticsSeries(t *testing.T) {
	a, _ := NewAgent(Config{})
	feedPeriods(a, [][2]uint64{{100, 100}, {200, 100}, {300, 100}})
	ys := a.Statistics()
	if len(ys) != 3 {
		t.Fatalf("series length = %d, want 3", len(ys))
	}
	if ys[0] != 0 {
		t.Errorf("y0 = %v, want 0", ys[0])
	}
	if ys[1] <= ys[0] || ys[2] <= ys[1] {
		t.Errorf("yn not accumulating under flood: %v", ys)
	}
}

func TestWarmupSuppressesEarlyDecisions(t *testing.T) {
	a, _ := NewAgent(Config{WarmupPeriods: 5})
	// Flood-sized imbalance during warm-up must not alarm.
	for i := 0; i < 5; i++ {
		feedPeriods(a, [][2]uint64{{1000, 10}})
	}
	if a.Alarmed() {
		t.Fatal("alarm during warm-up")
	}
	for _, r := range a.Reports() {
		if r.Y != 0 || r.Alarmed {
			t.Fatalf("warm-up report fed the detector: %+v", r)
		}
	}
	// After warm-up, the same imbalance alarms promptly.
	feedPeriods(a, [][2]uint64{{1000, 10}, {1000, 10}})
	if !a.Alarmed() {
		t.Error("post-warm-up flood not detected")
	}
}

func TestDesignUsesPaperRule(t *testing.T) {
	a, _ := NewAgent(Config{})
	d := a.Design()
	if d.MinIncrease != 0.7 {
		t.Errorf("h = %v, want 2a = 0.7", d.MinIncrease)
	}
	if got := d.DetectionTime(); math.Abs(got-3) > 1e-9 {
		t.Errorf("designed detection time = %v, want 3 periods", got)
	}
}

func TestProcessTraceCountsOnlyRelevantRecords(t *testing.T) {
	inside := netip.MustParseAddr("152.2.0.1")
	outside := netip.MustParseAddr("11.0.0.1")
	mk := func(ts time.Duration, kind packet.Kind, dir trace.Direction) trace.Record {
		return trace.Record{Ts: ts, Kind: kind, Dir: dir, Src: inside, Dst: outside}
	}
	tr := &trace.Trace{Name: "t", Span: time.Minute, Records: []trace.Record{
		mk(time.Second, packet.KindSYN, trace.DirOut),
		mk(2*time.Second, packet.KindSYN, trace.DirOut),
		mk(3*time.Second, packet.KindSYNACK, trace.DirIn),
		mk(4*time.Second, packet.KindSYN, trace.DirIn),     // inbound SYN: not counted
		mk(5*time.Second, packet.KindSYNACK, trace.DirOut), // outbound SYN/ACK: not counted
		mk(25*time.Second, packet.KindSYN, trace.DirOut),
		mk(45*time.Second, packet.KindSYNACK, trace.DirIn),
	}}
	a, _ := NewAgent(Config{})
	reports, err := a.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	if reports[0].OutSYN != 2 || reports[0].InSYNACK != 1 {
		t.Errorf("period 0 = %d/%d, want 2/1", reports[0].OutSYN, reports[0].InSYNACK)
	}
	if reports[1].OutSYN != 1 || reports[1].InSYNACK != 0 {
		t.Errorf("period 1 = %d/%d, want 1/0", reports[1].OutSYN, reports[1].InSYNACK)
	}
	if reports[2].OutSYN != 0 || reports[2].InSYNACK != 1 {
		t.Errorf("period 2 = %d/%d, want 0/1", reports[2].OutSYN, reports[2].InSYNACK)
	}
}

func TestProcessTraceValidation(t *testing.T) {
	a, _ := NewAgent(Config{})
	if _, err := a.ProcessTrace(&trace.Trace{}); err == nil {
		t.Error("spanless trace accepted")
	}
	if _, err := a.ProcessTrace(&trace.Trace{Span: time.Second}); err == nil {
		t.Error("too-short trace accepted")
	}
	bad := &trace.Trace{Span: time.Minute, Records: []trace.Record{
		{Ts: 5 * time.Second}, {Ts: time.Second},
	}}
	if _, err := a.ProcessTrace(bad); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestNoFalseAlarmOnGeneratedTraces(t *testing.T) {
	// Figure 5's claim: on normal background traffic yn is mostly zero
	// and never approaches N = 1.05, so no false alarms.
	for _, p := range trace.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p.Span = 10 * time.Minute
			tr, err := trace.Generate(p, 23)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := NewAgent(Config{})
			if _, err := a.ProcessTrace(tr); err != nil {
				t.Fatal(err)
			}
			if a.Alarmed() {
				t.Errorf("%s: false alarm on normal traffic", p.Name)
			}
		})
	}
}

func TestInstallOnRouterDetectsSimulatedFlood(t *testing.T) {
	// Full integration: event-driven leaf router, benign hosts priming
	// K̄, then a flooder inside the stub spraying spoofed SYNs.
	sim := eventsim.New()
	cloud := netsim.NewInternet(sim)
	stub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix:      netip.MustParsePrefix("10.1.0.0/24"),
		Hosts:       2,
		HostDelay:   time.Millisecond,
		UplinkDelay: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// External responder stub: answers every SYN with a SYN/ACK.
	ext, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix:      netip.MustParsePrefix("10.9.0.0/24"),
		Hosts:       1,
		HostDelay:   time.Millisecond,
		UplinkDelay: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := ext.Hosts[0]
	server.OnPacket = func(_ time.Duration, s packet.Segment) {
		if s.Kind() == packet.KindSYN {
			server.Send(packet.Build(s.IP.Dst, s.IP.Src, s.TCP.DstPort, s.TCP.SrcPort,
				1, s.TCP.Seq+1, packet.FlagSYN|packet.FlagACK))
		}
	}

	agent, _ := NewAgent(Config{T0: time.Second})
	if _, err := agent.Install(sim, stub.Router); err != nil {
		t.Fatal(err)
	}

	// Benign load: host 0 opens 50 connections/second for 10 s.
	benign := stub.Hosts[0]
	for i := 0; i < 500; i++ {
		i := i
		sim.After(time.Duration(i)*20*time.Millisecond, func(time.Duration) {
			benign.Send(packet.Build(benign.Addr, server.Addr,
				uint16(10000+i%50000), 80, uint32(i), 0, packet.FlagSYN))
		})
	}
	sim.RunUntil(10 * time.Second)
	if agent.Alarmed() {
		t.Fatal("false alarm during benign phase")
	}

	// Flood: host 1 sprays 300 spoofed SYNs/second from t=10s.
	flooder := stub.Hosts[1]
	spoof := netip.MustParseAddr("203.0.113.1")
	for i := 0; i < 3000; i++ {
		i := i
		at := 10*time.Second + time.Duration(i)*time.Second/300
		sim.At(at, func(time.Duration) {
			flooder.Send(packet.Build(spoof, server.Addr,
				uint16(1024+i%60000), 80, uint32(i), 0, packet.FlagSYN))
		})
	}
	sim.RunUntil(25 * time.Second)
	if !agent.Alarmed() {
		t.Fatal("flood not detected by installed agent")
	}
	al := agent.FirstAlarm()
	if al.At < 10*time.Second || al.At > 20*time.Second {
		t.Errorf("alarm at %v, want shortly after flood onset at 10s", al.At)
	}
}

// truncateTrace returns the prefix of tr before span — what an agent
// saw of the trace when it stopped at that point.
func truncateTrace(tr *trace.Trace, span time.Duration) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Span: span}
	for _, r := range tr.Records {
		if r.Ts < span {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// TestProcessTraceResumeEquivalence pins the resume contract: snapshot
// after k periods, restore, finish the full trace — the report series,
// alarm and K-bar must match a single uninterrupted run exactly.
func TestProcessTraceResumeEquivalence(t *testing.T) {
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	tr, err := trace.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := NewAgent(Config{})
	want, err := ref.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, 1, 13, 29, 30} {
		a1, _ := NewAgent(Config{})
		if k > 0 {
			if _, err := a1.ProcessTrace(truncateTrace(tr, time.Duration(k)*20*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		a2, err := RestoreAgent(a1.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, err := a2.ProcessTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d reports, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("k=%d: report %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
		if a2.KBar() != ref.KBar() {
			t.Errorf("k=%d: K-bar %v, want %v", k, a2.KBar(), ref.KBar())
		}
		if a2.Alarmed() != ref.Alarmed() {
			t.Errorf("k=%d: alarmed %v, want %v", k, a2.Alarmed(), ref.Alarmed())
		}
	}
}

// TestProcessTraceFullHistoryIsNoop: an agent whose history already
// covers the trace must not append anything on a second replay.
func TestProcessTraceFullHistoryIsNoop(t *testing.T) {
	p := trace.Auckland()
	p.Span = 4 * time.Minute
	tr, err := trace.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAgent(Config{})
	first, err := a.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	n := len(first)
	again, err := a.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != n {
		t.Errorf("second replay grew reports %d -> %d (double count)", n, len(again))
	}
}

func TestConfigNormalized(t *testing.T) {
	got := Config{}.Normalized()
	want := Config{
		T0: DefaultObservationPeriod, Alpha: DefaultAlpha,
		Offset: 0.35, Threshold: 1.05, MinK: 1,
	}
	if got != want {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	// Explicit values survive normalization.
	cfg := Config{T0: 10 * time.Second, Offset: 0.2, Threshold: 0.6}
	if n := cfg.Normalized(); n.T0 != 10*time.Second || n.Offset != 0.2 || n.Threshold != 0.6 {
		t.Errorf("Normalized() clobbered explicit values: %+v", n)
	}
}
