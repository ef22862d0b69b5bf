package flood

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trace"
)

var victim = netip.MustParseAddr("10.9.0.1")

func baseConfig(p Pattern) Config {
	return Config{
		Start:      time.Minute,
		Duration:   10 * time.Minute,
		Pattern:    p,
		Victim:     victim,
		VictimPort: 80,
		Seed:       1,
	}
}

func TestPatternRates(t *testing.T) {
	c := Constant{PerSecond: 45}
	if c.Rate(0) != 45 || c.Peak() != 45 {
		t.Error("constant pattern wrong")
	}

	b := Bursty{PeakRate: 100, On: time.Second, Off: 3 * time.Second}
	if b.Rate(500*time.Millisecond) != 100 {
		t.Error("bursty ON window wrong")
	}
	if b.Rate(2*time.Second) != 0 {
		t.Error("bursty OFF window wrong")
	}
	if b.Peak() != 100 || math.Abs(b.Mean()-25) > 1e-9 {
		t.Errorf("bursty peak/mean = %v/%v, want 100/25", b.Peak(), b.Mean())
	}
	if (Bursty{PeakRate: 100}).Rate(0) != 0 {
		t.Error("degenerate bursty cycle should be silent")
	}

	p := Pulsing{PeakRate: 100, On: time.Second, Off: 3 * time.Second}
	if p.Rate(500*time.Millisecond) != 100 || p.Rate(2*time.Second) != 0 {
		t.Error("pulsing duty cycle wrong")
	}
	if p.Peak() != 100 || math.Abs(p.Mean()-25) > 1e-9 {
		t.Errorf("pulsing peak/mean = %v/%v, want 100/25", p.Peak(), p.Mean())
	}
	if (Pulsing{PeakRate: 100}).Rate(0) != 0 || (Pulsing{PeakRate: 100}).Mean() != 0 {
		t.Error("degenerate pulsing cycle should be silent")
	}

	r := Ramp{StartRate: 0, EndRate: 100, Span: 10 * time.Second}
	if r.Rate(0) != 0 || r.Rate(5*time.Second) != 50 || r.Rate(20*time.Second) != 100 {
		t.Error("ramp interpolation wrong")
	}
	if r.Rate(-time.Second) != 0 {
		t.Error("ramp before start should hold StartRate")
	}
	if r.Peak() != 100 {
		t.Errorf("ramp peak = %v", r.Peak())
	}
	if (Ramp{StartRate: 1, EndRate: 9}).Rate(time.Second) != 9 {
		t.Error("zero-span ramp should return EndRate")
	}
}

func TestConstantTimesExactPerPeriodCounts(t *testing.T) {
	cfg := baseConfig(Constant{PerSecond: 45})
	times, err := Times(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int(45 * cfg.Duration.Seconds())
	if math.Abs(float64(len(times)-want)) > 1 {
		t.Errorf("emitted %d SYNs, want ~%d", len(times), want)
	}
	// Per-20s window counts must be 900 ± 1.
	counts := map[int]int{}
	for _, ts := range times {
		if ts < cfg.Start || ts >= cfg.Start+cfg.Duration {
			t.Fatalf("emission %v outside flood window", ts)
		}
		counts[int((ts-cfg.Start)/(20*time.Second))]++
	}
	for w, c := range counts {
		if c < 899 || c > 901 {
			t.Errorf("window %d count = %d, want 900±1", w, c)
		}
	}
}

func TestBurstyTimesMatchDutyCycle(t *testing.T) {
	cfg := baseConfig(Bursty{PeakRate: 100, On: 2 * time.Second, Off: 2 * time.Second})
	times, err := Times(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * cfg.Duration.Seconds() // mean rate 50/s
	got := float64(len(times))
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("bursty emitted %v, want ~%v", got, want)
	}
	// No emissions during OFF windows.
	for _, ts := range times {
		off := (ts - cfg.Start) % (4 * time.Second)
		if off >= 2*time.Second {
			t.Fatalf("emission at %v lies in an OFF window", ts)
		}
	}
}

// TestPulsingTimesDeterministicGrid pins the property the evasion
// suite leans on: Pulsing is an exact schedule, not a thinned draw —
// emissions land only inside On windows, every burst carries the same
// count, and the seed plays no part in the arrival times.
func TestPulsingTimesDeterministicGrid(t *testing.T) {
	pat := Pulsing{PeakRate: 50, On: 2 * time.Second, Off: 6 * time.Second}
	cfg := baseConfig(pat)
	times, err := Times(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := pat.On + pat.Off
	perBurst := map[int]int{}
	for _, ts := range times {
		off := (ts - cfg.Start) % cycle
		if off >= pat.On {
			t.Fatalf("emission at %v lies in an Off window", ts)
		}
		perBurst[int((ts-cfg.Start)/cycle)]++
	}
	bursts := int(cfg.Duration / cycle)
	if len(perBurst) != bursts {
		t.Fatalf("%d bursts, want %d", len(perBurst), bursts)
	}
	want := int(pat.PeakRate * pat.On.Seconds())
	for b, n := range perBurst {
		if n != want {
			t.Errorf("burst %d emitted %d, want exactly %d", b, n, want)
		}
	}
	cfg.Seed = cfg.Seed + 999
	again, err := Times(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(times) {
		t.Fatalf("seed changed arrival count: %d vs %d", len(again), len(times))
	}
	for i := range times {
		if times[i] != again[i] {
			t.Fatalf("seed changed arrival %d: %v vs %v", i, times[i], again[i])
		}
	}
}

func TestRampTimesGrow(t *testing.T) {
	cfg := baseConfig(Ramp{StartRate: 10, EndRate: 100, Span: 10 * time.Minute})
	times, err := Times(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := cfg.Start + cfg.Duration/2
	var first, second int
	for _, ts := range times {
		if ts < mid {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Errorf("ramp second half (%d) not busier than first (%d)", second, first)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{Duration: time.Minute, Victim: victim}, // no pattern
		{Duration: time.Minute, Pattern: Constant{}, Victim: victim},                        // zero rate
		{Duration: -1, Pattern: Constant{PerSecond: 5}, Victim: victim},                     // bad duration
		{Start: -1, Duration: time.Minute, Pattern: Constant{PerSecond: 5}, Victim: victim}, // bad start
		{Duration: time.Minute, Pattern: Constant{PerSecond: 5}},                            // no victim
	}
	for i, cfg := range cases {
		if _, err := Times(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateTraceRecords(t *testing.T) {
	cfg := baseConfig(Constant{PerSecond: 5})
	cfg.Duration = time.Minute
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "flood-constant" {
		t.Errorf("name = %q", tr.Name)
	}
	if tr.Span != cfg.Start+cfg.Duration {
		t.Errorf("span = %v", tr.Span)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 300 {
		t.Errorf("records = %d, want 300", len(tr.Records))
	}
	for _, r := range tr.Records {
		if r.Kind != packet.KindSYN || r.Dir != trace.DirOut {
			t.Fatalf("bad record %+v", r)
		}
		if r.Dst != victim || r.DstPort != 80 {
			t.Fatalf("wrong victim in %+v", r)
		}
		if !DefaultSpoofPrefix.Contains(r.Src) {
			t.Fatalf("source %v outside spoof prefix", r.Src)
		}
	}
}

func TestGenerateTraceMergesWithBackground(t *testing.T) {
	p := trace.Auckland()
	p.Span = 5 * time.Minute
	bg, err := trace.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(Constant{PerSecond: 10})
	cfg.Duration = 2 * time.Minute
	fl, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Merge("auckland+flood", bg, fl)
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mixed.Records) != len(bg.Records)+len(fl.Records) {
		t.Error("merge lost records")
	}
}

func TestSpoofedAddrStaysInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prefix := netip.MustParsePrefix("198.18.0.0/15")
	for i := 0; i < 1000; i++ {
		a := SpoofedAddr(prefix, rng)
		if !prefix.Contains(a) {
			t.Fatalf("spoofed %v escaped %v", a, prefix)
		}
	}
	// /32 prefix always yields the same address.
	one := netip.MustParsePrefix("192.0.2.1/32")
	if got := SpoofedAddr(one, rng); got != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("/32 spoof = %v", got)
	}
}

func TestSlaveValidation(t *testing.T) {
	host := netsim.NewHost(netip.MustParseAddr("10.1.0.1"))
	if _, err := NewSlave(nil, victim, 80, Constant{PerSecond: 5}, 1); err == nil {
		t.Error("nil host accepted")
	}
	if _, err := NewSlave(host, netip.Addr{}, 80, Constant{PerSecond: 5}, 1); err == nil {
		t.Error("invalid victim accepted")
	}
	if _, err := NewSlave(host, victim, 80, nil, 1); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := NewSlave(host, victim, 80, Constant{}, 1); err == nil {
		t.Error("zero-rate pattern accepted")
	}
}

func TestMasterLaunchesSlaves(t *testing.T) {
	sim := eventsim.New()
	cloud := netsim.NewInternet(sim)
	stub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix: netip.MustParsePrefix("10.1.0.0/24"),
		Hosts:  2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	victimStub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix: netip.MustParsePrefix("10.9.0.0/24"),
		Hosts:  1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	victimHost := victimStub.Hosts[0]
	victimHost.OnPacket = func(_ time.Duration, s packet.Segment) {
		if s.Kind() == packet.KindSYN {
			received++
		}
	}

	m := NewMaster()
	for i, h := range stub.Hosts {
		sl, err := NewSlave(h, victimHost.Addr, 80, Constant{PerSecond: 50}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		m.Enlist(sl)
	}
	if m.Slaves() != 2 {
		t.Fatalf("slaves = %d", m.Slaves())
	}
	if err := m.Launch(sim, time.Second, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// 2 slaves * 50/s * 10s = 1000.
	if m.TotalSent() != 1000 {
		t.Errorf("TotalSent = %d, want 1000", m.TotalSent())
	}
	if received != 1000 {
		t.Errorf("victim received %d, want 1000", received)
	}
}

func TestMasterLaunchValidation(t *testing.T) {
	sim := eventsim.New()
	m := NewMaster()
	if err := m.Launch(sim, 0, time.Minute); err == nil {
		t.Error("empty master launched")
	}
	host := netsim.NewHost(netip.MustParseAddr("10.1.0.1"))
	sl, _ := NewSlave(host, victim, 80, Constant{PerSecond: 1}, 1)
	m.Enlist(sl)
	if err := m.Launch(sim, 0, -time.Minute); err == nil {
		t.Error("negative duration launched")
	}
}

// Property: equal-volume patterns emit approximately equal counts —
// the precondition for the paper's pattern-insensitivity claim.
func TestEqualVolumePatternsProperty(t *testing.T) {
	f := func(rateRaw uint8, seed int64) bool {
		rate := 10 + float64(rateRaw%100)
		duration := 4 * time.Minute
		mk := func(p Pattern) int {
			cfg := Config{
				Start: 0, Duration: duration, Pattern: p,
				Victim: victim, VictimPort: 80, Seed: seed,
			}
			times, err := Times(cfg)
			if err != nil {
				return -1
			}
			return len(times)
		}
		constant := mk(Constant{PerSecond: rate})
		bursty := mk(Bursty{PeakRate: 2 * rate, On: time.Second, Off: time.Second})
		if constant < 0 || bursty < 0 {
			return false
		}
		ratio := float64(bursty) / float64(constant)
		return ratio > 0.8 && ratio < 1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCountPerPeriodMatchesGenerateTrace pins the counts fast path at
// the flood layer: binning the arrival process directly must equal
// rendering records with GenerateTrace and aggregating them, for every
// pattern, including arrivals dropped past the last complete period.
func TestCountPerPeriodMatchesGenerateTrace(t *testing.T) {
	t0 := 20 * time.Second
	patterns := map[string]Pattern{
		"constant": Constant{PerSecond: 45},
		"bursty":   Bursty{PeakRate: 100, On: 2 * time.Second, Off: 2 * time.Second},
		"pulsing":  Pulsing{PeakRate: 90, On: 3 * time.Second, Off: 7 * time.Second},
		"ramp":     Ramp{StartRate: 0, EndRate: 80, Span: 5 * time.Minute},
	}
	for name, p := range patterns {
		p := p
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(p)
			// Fewer periods than the flood covers, so the tail is dropped
			// on both paths.
			periods := int((cfg.Start + cfg.Duration) / t0 / 2)
			got, err := CountPerPeriod(cfg, t0, periods)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := GenerateTrace(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.Span = time.Duration(periods) * t0
			want := make([]float64, periods)
			for _, r := range tr.Records {
				if idx := int(r.Ts / t0); idx < periods {
					want[idx]++
				}
			}
			if len(got) != periods {
				t.Fatalf("%d periods, want %d", len(got), periods)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("period %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCountPerPeriodValidation(t *testing.T) {
	cfg := baseConfig(Constant{PerSecond: 5})
	if _, err := CountPerPeriod(cfg, 0, 10); err == nil {
		t.Error("zero t0 accepted")
	}
	if _, err := CountPerPeriod(cfg, 20*time.Second, -1); err == nil {
		t.Error("negative periods accepted")
	}
	out, err := CountPerPeriod(cfg, 20*time.Second, 0)
	if err != nil || len(out) != 0 {
		t.Errorf("zero periods: got %v, %v; want empty, nil", out, err)
	}
	if _, err := CountPerPeriod(Config{}, 20*time.Second, 5); err == nil {
		t.Error("invalid flood config accepted")
	}
}

// TestCountIntoAccumulates pins the overlay contract: CountInto adds
// the binned arrivals on top of whatever the buffer holds, identically
// to CountPerPeriod plus an elementwise sum.
func TestCountIntoAccumulates(t *testing.T) {
	cfg := baseConfig(Constant{PerSecond: 7})
	const t0, periods = 20 * time.Second, 12
	sep, err := CountPerPeriod(cfg, t0, periods)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, periods)
	want := make([]float64, periods)
	for i := range base {
		base[i] = float64(100 + i)
		want[i] = base[i] + sep[i]
	}
	if err := CountInto(cfg, t0, base); err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != want[i] {
			t.Errorf("period %d = %v, want %v", i, base[i], want[i])
		}
	}
	if err := CountInto(cfg, 0, base); err == nil {
		t.Error("zero t0 accepted")
	}
	if err := CountInto(Config{}, t0, base); err == nil {
		t.Error("invalid flood config accepted")
	}
}
