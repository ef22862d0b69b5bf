package sourcetrack

import (
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/packet"
	"repro/internal/trace"
)

// mix builds a background-plus-flood trace for one site profile. The
// spoof prefix is kept narrow so the equivalence tests stay below the
// tracker's capacity (eviction-free), which is the regime where the
// per-key-agent equivalence is exact.
func mixedTrace(t *testing.T, p trace.Profile, seed int64, spoof netip.Prefix, rate float64) *trace.Trace {
	t.Helper()
	bg, err := trace.Generate(p, seed)
	if err != nil {
		t.Fatalf("generate %s: %v", p.Name, err)
	}
	fl, err := flood.GenerateTrace(flood.Config{
		Start:       p.Span / 3,
		Duration:    p.Span / 3,
		Pattern:     flood.Constant{PerSecond: rate},
		Victim:      netip.MustParseAddr("11.9.9.9"),
		VictimPort:  80,
		SpoofPrefix: spoof,
		Seed:        seed + 1,
	})
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	return trace.Merge(p.Name+"+flood", bg, fl)
}

// filterForKey extracts exactly the records the tracker routes to key:
// outgoing SYNs whose source masks to it, incoming SYN/ACKs whose
// destination does. The span is preserved so period boundaries match.
func filterForKey(tr *trace.Trace, tk *Tracker, key netip.Prefix) *trace.Trace {
	out := &trace.Trace{Name: tr.Name + "@" + key.String(), Span: tr.Span}
	for _, r := range tr.Records {
		switch {
		case r.Dir == trace.DirOut && r.Kind == packet.KindSYN:
			if k, ok := tk.keyOf(r.Src); ok && k.prefix(tk.cfg.KeyBits) == key {
				out.Records = append(out.Records, r)
			}
		case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
			if k, ok := tk.keyOf(r.Dst); ok && k.prefix(tk.cfg.KeyBits) == key {
				out.Records = append(out.Records, r)
			}
		}
	}
	return out
}

// TestKeyedEquivalencePerKeyAgents pins the package's core claim: a
// keyed run is bit-identical to running one core.Agent per key over
// the key's pre-filtered records — including keys first
// admitted mid-trace (the flood keys), which exercises the
// fast-forward closed form in keyState.reset.
func TestKeyedEquivalencePerKeyAgents(t *testing.T) {
	cases := []struct {
		profile trace.Profile
		keyBits int
		spoof   netip.Prefix
		rate    float64
	}{
		{trace.LBL(), 24, netip.MustParsePrefix("240.0.0.0/24"), 30},
		{trace.Harvard(), 16, netip.MustParsePrefix("240.1.0.0/16"), 60},
	}
	for _, tc := range cases {
		t.Run(tc.profile.Name, func(t *testing.T) {
			tr := mixedTrace(t, tc.profile, 11, tc.spoof, tc.rate)
			cfg := Config{
				KeyBits:    tc.keyBits,
				MaxSources: 4096,
				Agent:      core.Config{T0: 20 * time.Second},
			}
			tk, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			perKey := make(map[netip.Prefix][]core.Report)
			tk.OnReport = func(key netip.Prefix, r core.Report) {
				perKey[key] = append(perKey[key], r)
			}
			if err := tk.ProcessTrace(tr); err != nil {
				t.Fatal(err)
			}
			if st := tk.Stats(); st.Evicted != 0 {
				t.Fatalf("equivalence run must be eviction-free, got %d evictions", st.Evicted)
			}

			ranked := tk.Sources(0)
			byKey := make(map[netip.Prefix]SourceReport, len(ranked))
			for _, s := range ranked {
				byKey[s.Key] = s
			}
			floodKey := netip.PrefixFrom(tc.spoof.Addr(), tc.keyBits)
			if !byKey[floodKey].Alarmed {
				t.Fatalf("flood key %v did not alarm", floodKey)
			}

			for key, reports := range perKey {
				agent, err := core.NewAgent(tk.Config().Agent)
				if err != nil {
					t.Fatal(err)
				}
				want, err := agent.ProcessTrace(filterForKey(tr, tk, key))
				if err != nil {
					t.Fatalf("key %v: %v", key, err)
				}
				for _, got := range reports {
					if got.Index >= len(want) {
						t.Fatalf("key %v: report index %d beyond agent's %d periods", key, got.Index, len(want))
					}
					if got != want[got.Index] {
						t.Fatalf("key %v period %d:\n tracker %+v\n agent   %+v", key, got.Index, got, want[got.Index])
					}
				}
				sr := byKey[key]
				al := agent.FirstAlarm()
				if sr.Alarmed != (al != nil) {
					t.Fatalf("key %v: tracker alarmed=%v, agent alarm=%v", key, sr.Alarmed, al)
				}
				if al != nil && (sr.AlarmPeriod != al.Period || sr.AlarmAtNanos != int64(al.At) || sr.AlarmY != al.Y) {
					t.Fatalf("key %v: tracker alarm %+v, agent alarm %+v", key, sr, *al)
				}
			}

			// A background key under MinK-floored normalization must not
			// alarm from ordinary retransmissions: only the flood key(s)
			// inside the spoof block may latch.
			for _, s := range ranked {
				if s.Alarmed && !tc.spoof.Contains(s.Key.Addr()) {
					t.Fatalf("background key %v alarmed: %+v", s.Key, s)
				}
			}
		})
	}
}

// TestBoundedMemoryMillionSources pins the Space-Saving bound: a
// stream with 2^20 distinct sources leaves exactly MaxSources CUSUM
// states behind, in arrays no larger than MaxSources, reports every
// recycling in Stats.Evicted, and the steady-state admission path
// allocates nothing per record.
func TestBoundedMemoryMillionSources(t *testing.T) {
	const n = 1 << 20
	tk, err := New(Config{
		KeyBits:    32,
		MaxSources: 256,
		Agent:      core.Config{T0: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i uint32) trace.Record {
		return trace.Record{
			Ts:   time.Duration(i),
			Kind: packet.KindSYN,
			Dir:  trace.DirOut,
			Src:  netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:  netip.MustParseAddr("11.9.9.9"),
		}
	}
	for i := uint32(0); i < n; i++ {
		tk.Observe(rec(i))
		if i%(1<<18) == 0 && i > 0 {
			tk.ClosePeriod(0, time.Duration(i))
		}
	}
	st := tk.Stats()
	if st.SYNs != n {
		t.Fatalf("SYNs = %d, want %d", st.SYNs, n)
	}
	if st.Tracked != 256 {
		t.Fatalf("Tracked = %d, want 256", st.Tracked)
	}
	if st.Evicted != n-256 {
		t.Fatalf("Evicted = %d, want %d — truncation must be fully accounted", st.Evicted, n-256)
	}
	if len(tk.heap) != 256 || len(tk.slab) != len(tk.heap) || tk.index.n != len(tk.heap) {
		t.Fatalf("%d heap / %d states / %d indexed, want 256 each", len(tk.heap), len(tk.slab), tk.index.n)
	}
	if cap(tk.slab) != 256 || cap(tk.heap) != 256 || cap(tk.pos) != 256 {
		t.Fatalf("capacity %d states / %d heap / %d positions, want 256 each", cap(tk.slab), cap(tk.heap), cap(tk.pos))
	}
	if got := len(tk.Sources(10)); got != 10 {
		t.Fatalf("Sources(10) returned %d entries", got)
	}

	// Steady state — every record admits a brand-new key by recycling
	// the minimum — must not allocate.
	next := uint32(n)
	avg := testing.AllocsPerRun(1000, func() {
		tk.Observe(rec(next))
		next++
	})
	if avg > 0 {
		t.Fatalf("steady-state Observe allocates %.2f objects/record, want 0", avg)
	}
}

// TestConcurrentChanSourceFeeds drives one tracker from four
// stub-style producer/consumer pairs over ingest.ChanSource — the
// fleet topology — and checks, against a sequentially-fed tracker,
// that the final state is independent of the interleaving. Run under
// -race this is the locking exercise.
func TestConcurrentChanSourceFeeds(t *testing.T) {
	const (
		stubs   = 4
		records = 4000
		periods = 3
	)
	cfg := Config{
		KeyBits:    24,
		MaxSources: 64,
		Agent:      core.Config{T0: time.Second},
	}
	tk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stubRecords := func(stub, period int) []trace.Record {
		out := make([]trace.Record, 0, records)
		for j := 0; j < records; j++ {
			host := netip.AddrFrom4([4]byte{10, byte(stub + 1), 0, byte(1 + j%50)})
			r := trace.Record{
				Ts:   time.Duration(period)*time.Second + time.Duration(j),
				Kind: packet.KindSYN,
				Dir:  trace.DirOut,
				Src:  host,
				Dst:  netip.MustParseAddr("11.9.9.9"),
			}
			if j%2 == 1 { // answered half: SYN/ACK back to the host
				r.Kind = packet.KindSYNACK
				r.Dir = trace.DirIn
				r.Src, r.Dst = r.Dst, r.Src
			}
			out = append(out, r)
		}
		return out
	}

	for period := 0; period < periods; period++ {
		var wg sync.WaitGroup
		for stub := 0; stub < stubs; stub++ {
			src := ingest.NewChanSource(256)
			wg.Add(2)
			go func(recs []trace.Record) {
				defer wg.Done()
				for _, r := range recs {
					src.Send(r)
				}
				src.CloseSend()
			}(stubRecords(stub, period))
			go func() {
				defer wg.Done()
				buf := make([]trace.Record, 64)
				for {
					n, err := src.NextBatch(buf)
					for _, r := range buf[:n] {
						tk.Record(r)
					}
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait() // quiesce: ClosePeriod requires no Observe in flight
		end := time.Duration(period+1) * time.Second
		tk.ClosePeriod(period, end)

		for stub := 0; stub < stubs; stub++ {
			for _, r := range stubRecords(stub, period) {
				seq.Record(r)
			}
		}
		seq.ClosePeriod(period, end)
	}

	st := tk.Stats()
	if want := uint64(stubs * records * periods / 2); st.SYNs != want || st.SYNACKs != want {
		t.Fatalf("counts not conserved: %+v, want %d SYNs and SYN/ACKs", st, want)
	}
	if a, b := tk.Snapshot(), seq.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("concurrently fed state differs from sequentially fed state:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSpaceSavingAdversarialChurn drives the tracker with the workload
// Space-Saving admission exists for: an attacker rotating spoofed
// sources across fresh /24s faster than the table can hold them, on
// top of one persistent heavy flooder and a population of balanced
// legitimate keys. Bounded memory must degrade loudly, never silently:
// every recycled state is counted in Evicted, churn survivors carry a
// non-zero CountErr, SYN/ACKs landing on untracked keys are tallied
// exactly, and the heavy flooder — the key attribution actually needs
// — survives the churn and stays alarmed.
func TestSpaceSavingAdversarialChurn(t *testing.T) {
	const (
		maxSources = 16
		steadyKeys = maxSources - 1
		churnKeys  = 400
	)
	tk, err := New(Config{KeyBits: 24, MaxSources: maxSources, Agent: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	t0 := 20 * time.Second
	victim := netip.MustParseAddr("11.9.9.9")
	syn := func(ts time.Duration, src netip.Addr) trace.Record {
		return trace.Record{Ts: ts, Kind: packet.KindSYN, Dir: trace.DirOut,
			Src: src, Dst: victim, DstPort: 80}
	}
	synack := func(ts time.Duration, dst netip.Addr) trace.Record {
		return trace.Record{Ts: ts, Kind: packet.KindSYNACK, Dir: trace.DirIn,
			Src: victim, Dst: dst}
	}
	attacker := netip.MustParseAddr("240.9.9.1")
	attackerKey := netip.PrefixFrom(netip.MustParseAddr("240.9.9.0"), 24)
	steady := make([]netip.Addr, steadyKeys)
	for i := range steady {
		steady[i] = netip.AddrFrom4([4]byte{10, 1, byte(i), 5})
	}

	// Phase A: the attacker floods (SYNs, never answered) while the
	// steady keys stay balanced. Exactly MaxSources keys exist, so no
	// admission pressure yet.
	periods := 0
	for p := 0; p < 4; p++ {
		base := time.Duration(p) * t0
		for i := 0; i < 50; i++ {
			tk.Record(syn(base+time.Duration(i)*100*time.Millisecond, attacker))
		}
		for _, s := range steady {
			tk.Record(syn(base+time.Second, s))
			tk.Record(synack(base+time.Second+50*time.Millisecond, s))
			tk.Record(syn(base+2*time.Second, s))
			tk.Record(synack(base+2*time.Second+50*time.Millisecond, s))
		}
		tk.ClosePeriod(periods, base+t0)
		periods++
	}
	st := tk.Stats()
	if st.Evicted != 0 {
		t.Fatalf("evictions before capacity pressure: %d", st.Evicted)
	}
	if st.Tracked != maxSources {
		t.Fatalf("tracked = %d, want %d", st.Tracked, maxSources)
	}

	// Phase B: spoof churn — churnKeys fresh /24s, one SYN each, all
	// inside one period. Every arrival is a new key hitting a full
	// table, so every admission recycles exactly one state.
	churnBase := time.Duration(periods) * t0
	for i := 0; i < churnKeys; i++ {
		src := netip.AddrFrom4([4]byte{241, byte(i >> 8), byte(i), 7})
		tk.Record(syn(churnBase+time.Duration(i)*time.Millisecond, src))
	}
	// The attacker keeps flooding through the churn period.
	for i := 0; i < 50; i++ {
		tk.Record(syn(churnBase+time.Second+time.Duration(i)*100*time.Millisecond, attacker))
	}
	tk.ClosePeriod(periods, churnBase+t0)
	periods++

	st = tk.Stats()
	if st.Evicted != churnKeys {
		t.Errorf("Evicted = %d, want exactly %d (one recycle per fresh key)",
			st.Evicted, churnKeys)
	}
	if st.Tracked > maxSources {
		t.Errorf("tracked = %d exceeds MaxSources = %d", st.Tracked, maxSources)
	}

	// The heavy flooder must survive admission churn (its count dwarfs
	// every candidate minimum) and must be alarmed: per-key X ≈ 50/MinK
	// with zero SYN/ACKs, far past the threshold.
	var attackerRow *SourceReport
	churnErrs := 0
	churnRows := 0
	for _, s := range tk.Sources(0) {
		s := s
		if s.Key == attackerKey {
			attackerRow = &s
		}
		if s.Key.Addr().As4()[0] == 241 {
			churnRows++
			if s.CountErr > 0 {
				churnErrs++
			}
		}
	}
	if attackerRow == nil {
		t.Fatal("heavy flooder evicted by one-shot churn keys")
	}
	if !attackerRow.Alarmed {
		t.Error("heavy flooder not alarmed after churn")
	}
	if attackerRow.CountErr != 0 {
		t.Errorf("pre-capacity key carries CountErr = %d", attackerRow.CountErr)
	}
	// Degradation is visible: churn survivors occupy recycled slots and
	// every one of them advertises its overestimation bound.
	if churnRows == 0 {
		t.Fatal("no churn keys tracked at all")
	}
	if churnErrs != churnRows {
		t.Errorf("%d of %d churn rows carry CountErr > 0; recycled state must not look exact",
			churnErrs, churnRows)
	}

	// UntrackedSYNACKs is an exact ledger: SYN/ACKs keyed to evicted or
	// never-seen keys never admit and are counted one for one.
	u0 := tk.Stats().UntrackedSYNACKs
	tailBase := time.Duration(periods) * t0
	for i := 0; i < 7; i++ {
		dst := netip.AddrFrom4([4]byte{242, 0, byte(i), 9})
		tk.Record(synack(tailBase+time.Duration(i)*time.Millisecond, dst))
	}
	// The steady keys were the admission casualties (their counts were
	// the table minimum), so a SYN/ACK for one of them is untracked
	// too; the surviving attacker key is the tracked control.
	tk.Record(synack(tailBase+time.Second, attacker))
	st = tk.Stats()
	if st.UntrackedSYNACKs != u0+7 {
		t.Errorf("UntrackedSYNACKs = %d, want %d", st.UntrackedSYNACKs, u0+7)
	}
	if st.Tracked > maxSources {
		t.Errorf("SYN/ACKs admitted keys: tracked = %d", st.Tracked)
	}
}

// TestViewConsistentAcrossPeriodClose is the regression test for the
// /sources consistency bug: reading Periods(), Stats() and Sources()
// as three separate calls can straddle a ClosePeriod sweep, returning
// a period clock that disagrees with the per-key reports. View must
// never do that — every row it returns carries the view's own period
// count, because a view and a period close each hold the tracker lock
// for their whole pass.
func TestViewConsistentAcrossPeriodClose(t *testing.T) {
	tk, err := New(Config{
		KeyBits:    32,
		MaxSources: 256,
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admit every key at period 0, so every key's period clock advances
	// with every ClosePeriod and each sweep is wide enough for a view
	// to land inside it.
	const keys = 256
	for k := 0; k < keys; k++ {
		tk.Observe(trace.Record{
			Kind: packet.KindSYN, Dir: trace.DirOut,
			Src: netip.AddrFrom4([4]byte{10, 0, byte(k), 1}),
			Dst: netip.MustParseAddr("11.9.9.9"),
		})
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := 0; ; p++ {
			select {
			case <-stop:
				return
			default:
			}
			tk.ClosePeriod(p, time.Duration(p+1)*time.Second)
		}
	}()

	const views = 3000
	for i := 0; i < views; i++ {
		v := tk.View(0)
		if len(v.Sources) != keys || v.Stats.Tracked != keys {
			t.Fatalf("view lost keys: %d sources, stats %+v", len(v.Sources), v.Stats)
		}
		for _, row := range v.Sources {
			if row.Periods != v.Periods {
				t.Fatalf("inconsistent view %d: key %v at period %d inside a view claiming period %d",
					i, row.Key, row.Periods, v.Periods)
			}
		}
	}
	close(stop)
	<-done
}

// TestViewMatchesSeparateCalls pins that a quiescent View agrees with
// the three individual accessors, including the ranking and limit.
func TestViewMatchesSeparateCalls(t *testing.T) {
	tk := busyTracker(t)
	for _, limit := range []int{0, 2, 100} {
		v := tk.View(limit)
		if v.Periods != tk.Periods() {
			t.Errorf("limit=%d: View periods %d != %d", limit, v.Periods, tk.Periods())
		}
		if v.Stats != tk.Stats() {
			t.Errorf("limit=%d: View stats %+v != %+v", limit, v.Stats, tk.Stats())
		}
		if !reflect.DeepEqual(v.Sources, tk.Sources(limit)) {
			t.Errorf("limit=%d: View sources differ from Sources(%d)", limit, limit)
		}
	}
}

// TestIPv6AndMixedFamilyKeying pins how addresses of both families
// become keys: v4-mapped addresses key as v4, v6 addresses keep the
// same host-part width (/24 keying masks them to /120), zones drop,
// the zero address is unkeyed, v4 keys rank before v6 keys at equal
// count, and a snapshot of a mixed population round-trips while a
// mapped key dressed as v6 is rejected.
func TestIPv6AndMixedFamilyKeying(t *testing.T) {
	tk, err := New(Config{KeyBits: 24, MaxSources: 16, Agent: core.Config{T0: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	victim := netip.MustParseAddr("11.9.9.9")
	syn := func(src string) trace.Record {
		r := trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut, Dst: victim}
		if src != "" {
			r.Src = netip.MustParseAddr(src)
		}
		return r
	}
	tk.RecordBatch([]trace.Record{
		syn("::ffff:10.1.2.9"),
		syn("10.1.2.200"),
		syn("2001:db8::1234"),
		syn("2001:db8::12ff"),
		syn("fe80::1%eth0"),
		syn(""),
		{Kind: packet.KindSYNACK, Dir: trace.DirIn, Src: victim, Dst: netip.MustParseAddr("2001:db8::12aa")},
	})
	tk.ClosePeriod(0, time.Second)

	st := tk.Stats()
	if st.Unkeyed != 1 || st.SYNs != 5 || st.SYNACKs != 1 || st.Tracked != 3 {
		t.Fatalf("stats %+v, want 1 unkeyed, 5 SYNs, 1 SYN/ACK, 3 keys", st)
	}
	want := []struct {
		key           string
		count, synAck uint64
	}{
		// 10.1.2.0/24 and 2001:db8::1200/120 tie at two SYNs: the v4
		// key ranks first.
		{"10.1.2.0/24", 2, 0},
		{"2001:db8::1200/120", 2, 1},
		{"fe80::/120", 1, 0},
	}
	got := tk.Sources(0)
	if len(got) != len(want) {
		t.Fatalf("%d sources, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Key != netip.MustParsePrefix(w.key) || got[i].Count != w.count || got[i].InSYNACK != w.synAck {
			t.Errorf("source %d = %v count %d synAck %d, want %s count %d synAck %d",
				i, got[i].Key, got[i].Count, got[i].InSYNACK, w.key, w.count, w.synAck)
		}
	}

	snap := tk.Snapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(decoded, tk.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), snap) {
		t.Fatal("restored mixed-family snapshot differs")
	}
	if !reflect.DeepEqual(restored.Sources(0), got) {
		t.Fatal("restored ranking differs")
	}

	decoded.Keys[0].Key = netip.MustParsePrefix("::ffff:10.9.9.0/120")
	if _, err := Restore(decoded, tk.Config()); err == nil || !strings.Contains(err.Error(), "not a /24 key") {
		t.Fatalf("mapped key dressed as v6: Restore error %v, want a not-a-/24-key rejection", err)
	}
}

// TestIndexProbeRunsStayShort pins the seeded index hash against keys
// chosen to collide under the identity: /24 keys spaced by the size
// the index reaches (two buckets per key), so their low bits all
// agree and an unmixed hash would start every probe at one bucket.
// After three times as many keys churn through by eviction, every key
// is found at its slot and the longest displacement from a key's home
// bucket stays short.
func TestIndexProbeRunsStayShort(t *testing.T) {
	const keys, size = 512, 1024
	tk, err := New(Config{KeyBits: 24, MaxSources: keys, Agent: core.Config{T0: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*keys; i++ {
		a := uint32(i*size) << 8
		tk.Observe(trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut,
			Src: netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), 1}),
			Dst: netip.MustParseAddr("11.9.9.9")})
	}
	if st := tk.Stats(); st.Tracked != keys || st.Evicted != 3*keys || tk.index.n != keys || len(tk.index.ents) != size {
		t.Fatalf("stats %+v, %d of %d buckets used; want %d tracked and indexed, %d evicted, %d buckets",
			st, tk.index.n, len(tk.index.ents), keys, 3*keys, size)
	}
	for _, e := range tk.heap {
		if got := tk.index.find(e.k); got != e.slot {
			t.Fatalf("key %v indexed at slot %d, heap says %d", e.k.prefix(24), got, e.slot)
		}
	}
	longest := 0
	for j, e := range tk.index.ents {
		if e.slot >= 0 {
			longest = max(longest, (j-tk.index.home(e.k))&(size-1))
		}
	}
	if longest > 64 {
		t.Fatalf("longest probe displacement %d over %d keys in %d buckets", longest, keys, size)
	}
}
