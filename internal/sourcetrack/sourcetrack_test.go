package sourcetrack

import (
	"net/netip"
	"reflect"
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
			if k, ok := tk.keyOf(r.Src); ok && k == key {
				out.Records = append(out.Records, r)
			}
		case r.Dir == trace.DirIn && r.Kind == packet.KindSYNACK:
			if k, ok := tk.keyOf(r.Dst); ok && k == key {
				out.Records = append(out.Records, r)
			}
		}
	}
	return out
}

// TestKeyedEquivalencePerKeyAgents pins the package's core claim: a
// single-shard keyed run is bit-identical to running one core.Agent
// per key over the key's pre-filtered records — including keys first
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
				Shards:     1,
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

			// Sharded execution is an execution detail: same trace, same
			// config, eight stripes — identical final snapshot.
			sharded, err := New(Config{
				KeyBits:    tc.keyBits,
				MaxSources: 4096,
				Shards:     8,
				Agent:      core.Config{T0: 20 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sharded.ProcessTrace(tr); err != nil {
				t.Fatal(err)
			}
			if a, b := tk.Snapshot(), sharded.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("sharded snapshot differs from single-shard snapshot")
			}
		})
	}
}

// TestBoundedMemoryMillionSources pins the Space-Saving bound: a
// stream with 2^20 distinct sources leaves exactly MaxSources CUSUM
// states behind, reports every recycling in Stats.Evicted, and the
// steady-state admission path allocates nothing per record.
func TestBoundedMemoryMillionSources(t *testing.T) {
	const n = 1 << 20
	tk, err := New(Config{
		KeyBits:    32,
		MaxSources: 256,
		Shards:     4,
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
	for i, sh := range tk.shards {
		if len(sh.heap) != sh.cap || len(sh.states) != len(sh.heap) {
			t.Fatalf("shard %d: %d heap / %d states, cap %d", i, len(sh.heap), len(sh.states), sh.cap)
		}
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

// TestConcurrentChanSourceFeeds drives one sharded tracker from four
// stub-style producer/consumer pairs over ingest.ChanSource — the
// fleet topology — and checks, against a sequentially-fed single-shard
// tracker, that the final state is independent of both interleaving
// and stripe layout. Run under -race this is the locking exercise.
func TestConcurrentChanSourceFeeds(t *testing.T) {
	const (
		stubs   = 4
		records = 4000
		periods = 3
	)
	cfg := Config{
		KeyBits:    24,
		MaxSources: 64,
		Shards:     8,
		Agent:      core.Config{T0: time.Second},
	}
	tk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(Config{KeyBits: 24, MaxSources: 64, Shards: 1, Agent: cfg.Agent})
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
		t.Fatalf("concurrent sharded state differs from sequential single-shard state:\n%+v\n%+v", a.Stats, b.Stats)
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
	tk, err := New(Config{KeyBits: 24, MaxSources: maxSources, Shards: 1,
		Agent: core.Config{}})
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
// count. On the pre-fix code (no sweep lock) dozens of the views below
// catch a half-swept tracker.
func TestViewConsistentAcrossPeriodClose(t *testing.T) {
	tk, err := New(Config{
		KeyBits:    32,
		MaxSources: 256,
		Shards:     16,
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admit keys spread across all shards at period 0, so every key's
	// period clock advances with every ClosePeriod and each sweep is
	// wide enough for a view to land inside it.
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
