package trace

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/stats"
)

var (
	insideAddr  = netip.MustParseAddr("152.2.1.1")
	outsideAddr = netip.MustParseAddr("11.0.0.1")
)

func rec(ts time.Duration, kind packet.Kind, dir Direction) Record {
	src, dst := insideAddr, outsideAddr
	if dir == DirIn {
		src, dst = outsideAddr, insideAddr
	}
	return Record{Ts: ts, Kind: kind, Dir: dir, Src: src, Dst: dst, SrcPort: 1000, DstPort: 80}
}

func TestDirectionString(t *testing.T) {
	if DirIn.String() != "in" || DirOut.String() != "out" {
		t.Error("direction strings wrong")
	}
	if Direction(7).String() != "dir(7)" {
		t.Error("unknown direction string wrong")
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{Span: time.Minute, Records: []Record{
		rec(0, packet.KindSYN, DirOut),
		rec(time.Second, packet.KindSYNACK, DirIn),
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	unsorted := &Trace{Span: time.Minute, Records: []Record{
		rec(2*time.Second, packet.KindSYN, DirOut),
		rec(time.Second, packet.KindSYN, DirOut),
	}}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted trace accepted")
	}
	outOfSpan := &Trace{Span: time.Second, Records: []Record{
		rec(2*time.Second, packet.KindSYN, DirOut),
	}}
	if err := outOfSpan.Validate(); err == nil {
		t.Error("out-of-span record accepted")
	}
}

func TestSortIsStable(t *testing.T) {
	tr := &Trace{Span: time.Minute}
	// Two co-timed records with distinguishable ports.
	a := rec(time.Second, packet.KindSYN, DirOut)
	a.SrcPort = 1
	b := rec(time.Second, packet.KindSYN, DirOut)
	b.SrcPort = 2
	tr.Records = []Record{rec(2*time.Second, packet.KindSYN, DirOut), a, b}
	tr.Sort()
	if tr.Records[0].SrcPort != 1 || tr.Records[1].SrcPort != 2 {
		t.Error("stable sort violated for co-timed records")
	}
}

func TestSplitAndFilter(t *testing.T) {
	tr := &Trace{Name: "X", Span: time.Minute, Records: []Record{
		rec(0, packet.KindSYN, DirOut),
		rec(1*time.Second, packet.KindSYNACK, DirIn),
		rec(2*time.Second, packet.KindSYN, DirOut),
	}}
	in, out := tr.Split()
	if in.Name != "X-in" || out.Name != "X-out" {
		t.Errorf("split names = %q/%q", in.Name, out.Name)
	}
	if len(in.Records) != 1 || len(out.Records) != 2 {
		t.Errorf("split sizes = %d/%d, want 1/2", len(in.Records), len(out.Records))
	}
	if in.Span != time.Minute || out.Span != time.Minute {
		t.Error("split lost span")
	}
}

func TestMergeSortsAndSpans(t *testing.T) {
	a := &Trace{Name: "a", Span: time.Minute, Records: []Record{
		rec(30*time.Second, packet.KindSYN, DirOut),
	}}
	b := &Trace{Name: "b", Span: 2 * time.Minute, Records: []Record{
		rec(10*time.Second, packet.KindSYN, DirOut),
		rec(90*time.Second, packet.KindSYN, DirOut),
	}}
	m := Merge("mixed", a, b)
	if m.Span != 2*time.Minute {
		t.Errorf("merged span = %v, want 2m", m.Span)
	}
	if len(m.Records) != 3 {
		t.Fatalf("merged records = %d, want 3", len(m.Records))
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merged trace invalid: %v", err)
	}
	if m.Records[0].Ts != 10*time.Second {
		t.Error("merge did not sort")
	}
}

func TestAggregate(t *testing.T) {
	tr := &Trace{Span: time.Minute, Records: []Record{
		rec(1*time.Second, packet.KindSYN, DirOut),
		rec(2*time.Second, packet.KindSYN, DirOut),
		rec(3*time.Second, packet.KindSYNACK, DirIn),
		rec(21*time.Second, packet.KindSYN, DirOut),
		rec(41*time.Second, packet.KindSYNACK, DirIn),
		// Records that must NOT be counted:
		rec(5*time.Second, packet.KindSYN, DirIn),     // inbound SYN
		rec(6*time.Second, packet.KindSYNACK, DirOut), // outbound SYN/ACK
		rec(7*time.Second, packet.KindFIN, DirOut),    // teardown
	}}
	tr.Sort()
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Periods() != 3 {
		t.Fatalf("periods = %d, want 3", pc.Periods())
	}
	wantSYN := []float64{2, 1, 0}
	wantACK := []float64{1, 0, 1}
	for i := range wantSYN {
		if pc.OutSYN[i] != wantSYN[i] {
			t.Errorf("OutSYN[%d] = %v, want %v", i, pc.OutSYN[i], wantSYN[i])
		}
		if pc.InSYNACK[i] != wantACK[i] {
			t.Errorf("InSYNACK[%d] = %v, want %v", i, pc.InSYNACK[i], wantACK[i])
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	tr := &Trace{Span: time.Minute}
	if _, err := tr.Aggregate(0); err == nil {
		t.Error("zero period accepted")
	}
	empty := &Trace{}
	if _, err := empty.Aggregate(time.Second); err == nil {
		t.Error("empty trace accepted")
	}
	short := &Trace{Span: time.Second}
	if _, err := short.Aggregate(time.Minute); err == nil {
		t.Error("span shorter than one period accepted")
	}
}

func TestSummarizeDirectionality(t *testing.T) {
	bi := &Trace{Name: "bi", Span: time.Minute, Records: []Record{
		rec(0, packet.KindSYN, DirOut),
		rec(time.Second, packet.KindSYNACK, DirIn),
		rec(2*time.Second, packet.KindSYN, DirIn),
	}}
	s := bi.Summarize()
	if s.Directional != "Bi-directional" {
		t.Errorf("directional = %q, want Bi-directional", s.Directional)
	}
	uni := &Trace{Name: "uni", Span: time.Minute, Records: []Record{
		rec(0, packet.KindSYN, DirOut),
		rec(time.Second, packet.KindSYN, DirOut),
	}}
	if got := uni.Summarize().Directional; got != "Uni-directional" {
		t.Errorf("directional = %q, want Uni-directional", got)
	}
	if s.OutSYN != 1 || s.InSYNACK != 1 || s.InSYN != 1 {
		t.Errorf("summary counts wrong: %+v", s)
	}
}

// --- Profile generation -------------------------------------------------

func TestGenerateValidation(t *testing.T) {
	bad := Profile{Name: "bad"}
	if _, err := Generate(bad, 1); err == nil {
		t.Error("empty profile accepted")
	}
	p := UNC()
	p.ResponseProb = 1.5
	if _, err := Generate(p, 1); err == nil {
		t.Error("bad ResponseProb accepted")
	}
	p = UNC()
	p.Prefix = netip.Prefix{}
	if _, err := Generate(p, 1); err == nil {
		t.Error("unset Prefix accepted")
	}
	p.Prefix = netip.MustParsePrefix("2001:db8::/32")
	if _, err := Generate(p, 1); err == nil {
		t.Error("IPv6 Prefix accepted")
	}
	p = UNC()
	p.MeanRTT = -time.Millisecond
	if _, err := Generate(p, 1); err == nil {
		t.Error("negative MeanRTT accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Auckland()
	p.Span = 10 * time.Minute // trim for test speed
	a, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
	c, err := Generate(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) == len(a.Records) {
		// Same length is conceivable but equality of all records is not.
		same := true
		for i := range a.Records {
			if a.Records[i] != c.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

// checkCalibration asserts the generated per-period SYN/ACK level is
// near the target K̄ and the SYN-SYN/ACK correlation is strong.
// Outages are disabled: they are rare in full-span traces but would
// dominate the correlation statistic over these short test spans.
func checkCalibration(t *testing.T, p Profile, seed int64, wantKBar, tol float64) {
	t.Helper()
	p.OutagesPerHour = 0
	tr, err := Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	kBar := stats.Mean(pc.InSYNACK)
	if kBar < wantKBar*(1-tol) || kBar > wantKBar*(1+tol) {
		t.Errorf("%s: K̄ = %.1f, want %.0f ±%.0f%%", p.Name, kBar, wantKBar, tol*100)
	}
	corr := stats.CrossCorrelation(pc.OutSYN, pc.InSYNACK)
	if corr < 0.8 {
		t.Errorf("%s: SYN-SYN/ACK correlation = %.2f, want > 0.8", p.Name, corr)
	}
	// SYNs slightly exceed SYN/ACKs (drops + retransmissions) but the
	// normalized mean stays well under the offset a = 0.35.
	synMean := stats.Mean(pc.OutSYN)
	c := (synMean - kBar) / kBar
	if c < 0 || c > 0.25 {
		t.Errorf("%s: normalized mean c = %.3f, want in (0, 0.25)", p.Name, c)
	}
}

func TestUNCCalibration(t *testing.T) {
	p := UNC()
	p.Span = 10 * time.Minute
	checkCalibration(t, p, 7, 2114, 0.25)
}

func TestAucklandCalibration(t *testing.T) {
	p := Auckland()
	p.Span = 20 * time.Minute
	checkCalibration(t, p, 7, 100, 0.3)
}

func TestHarvardCalibration(t *testing.T) {
	p := Harvard()
	p.Span = 10 * time.Minute
	checkCalibration(t, p, 7, 300, 0.3)
}

func TestLBLGeneratesBidirectional(t *testing.T) {
	p := LBL()
	p.Span = 10 * time.Minute
	tr, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Directional != "Bi-directional" {
		t.Errorf("LBL trace is %s", s.Directional)
	}
	if s.InSYN == 0 || s.OutSYNACK == 0 {
		t.Error("LBL should contain inbound connections")
	}
}

func TestProfilesCover4Sites(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("Profiles() returned %d, want 4", len(ps))
	}
	want := []string{"LBL", "Harvard", "UNC", "Auckland"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("profile %d = %q, want %q", i, p.Name, want[i])
		}
	}
	// Paper durations (Table 1).
	if ps[0].Span != time.Hour || ps[1].Span != 30*time.Minute ||
		ps[2].Span != 30*time.Minute || ps[3].Span != 3*time.Hour {
		t.Error("profile durations do not match Table 1")
	}
}

func TestRandomAddrInStaysInPrefix(t *testing.T) {
	p := UNC()
	tr, err := Generate(withSpan(p, 2*time.Minute), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Records {
		var inside netip.Addr
		if r.Dir == DirOut && r.Kind == packet.KindSYN {
			inside = r.Src
		} else if r.Dir == DirIn && r.Kind == packet.KindSYNACK {
			inside = r.Dst
		} else {
			continue
		}
		if !p.Prefix.Contains(inside) {
			t.Fatalf("inside address %v outside prefix %v", inside, p.Prefix)
		}
	}
}

func withSpan(p Profile, span time.Duration) Profile {
	p.Span = span
	return p
}

func TestGeneratedTrafficIsBurstierThanPoisson(t *testing.T) {
	// The background generators must be self-similar, not Poisson
	// (Section 3.2 cites the Poisson-failure literature). Check the
	// per-second SYN counts: index of dispersion must exceed the
	// Poisson value of ~1.
	p := UNC()
	p.Span = 10 * time.Minute
	p.OutagesPerHour = 0
	p.DiurnalAmp = 0 // isolate the arrival process itself
	tr, err := Generate(p, 31)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, int(p.Span/time.Second))
	for _, r := range tr.Records {
		if r.Kind == packet.KindSYN && r.Dir == DirOut {
			idx := int(r.Ts / time.Second)
			if idx < len(counts) {
				counts[idx]++
			}
		}
	}
	iod := stats.IndexOfDispersion(counts)
	if iod < 1.5 {
		t.Errorf("per-second SYN dispersion = %.2f, want clearly > 1 (bursty)", iod)
	}
}

func TestBackgroundIsSelfSimilar(t *testing.T) {
	// The site backgrounds must carry the long-range dependence
	// measured in real wide-area TCP arrivals (H ≈ 0.7-0.9), not
	// Poisson smoothness (H = 0.5): every profile, at three seeds, must
	// read a variance-time H in [0.6, 1). The diurnal drift alone lifts
	// even Poisson starts into that range (0.61-0.89 with Poisson in
	// place of the ON/OFF superposition), so the arrival process is
	// also measured on its own, with drift and outages off: there, over
	// seeds 1-10, Poisson starts read 0.38-0.59 a seed and the ON/OFF
	// superposition 0.57-0.82, and each profile's mean over seeds 1-3
	// must reach 0.56.
	for _, p := range Profiles() {
		flat := p
		flat.DiurnalAmp, flat.OutagesPerHour = 0, 0
		flatSum := 0.0
		for seed := int64(1); seed <= 3; seed++ {
			if h := synHurst(t, p, seed); h < 0.6 || h >= 1 {
				t.Errorf("%s seed %d: variance-time H = %.3f, want in [0.6, 1)", p.Name, seed, h)
			}
			flatSum += synHurst(t, flat, seed)
		}
		if h := flatSum / 3; h < 0.56 {
			t.Errorf("%s without drift or outages: mean H = %.3f over seeds 1-3, want >= 0.56", p.Name, h)
		}
	}
}

// synHurst returns the variance-time Hurst estimate of the per-second
// outgoing-SYN counts of the profile's trace at seed, with both
// directions pooled for a bidirectional trace as the Figure 3 panels
// pool them.
func synHurst(t *testing.T, p Profile, seed int64) float64 {
	t.Helper()
	tr, err := Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	syn := pc.OutSYN
	if p.Bidirectional {
		back, err := tr.Flip().Aggregate(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := range syn {
			syn[i] += back.OutSYN[i]
		}
	}
	h, err := stats.VarianceTimeHurst(syn)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOutagesCreateBoundedSpikes(t *testing.T) {
	// Outage windows must create visible SYN-SYN/ACK discrepancy (the
	// Figure 5 spikes) without ever approaching a flood-sized signal.
	p := Auckland()
	p.Span = time.Hour
	p.OutagesPerHour = 6 // dense, so the test reliably sees some
	sawSpike := false
	for seed := int64(1); seed <= 5 && !sawSpike; seed++ {
		tr, err := Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := tr.Aggregate(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		kBar := stats.Mean(pc.InSYNACK)
		for i := range pc.OutSYN {
			x := (pc.OutSYN[i] - pc.InSYNACK[i]) / kBar
			if x > 0.35 {
				sawSpike = true
			}
			if x > 1.0 {
				t.Fatalf("seed %d period %d: benign X = %.2f looks like a flood", seed, i, x)
			}
		}
	}
	if !sawSpike {
		t.Error("dense outages produced no X > a spikes; Figure 5 spikes unreproducible")
	}
}

func TestOutageDrawDeterministic(t *testing.T) {
	p := Auckland()
	p.Span = 30 * time.Minute
	a, err := Generate(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("outage sampling broke determinism")
	}
}

func TestPoissonDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if got := poissonDraw(rng, 0); got != 0 {
		t.Errorf("poissonDraw(0) = %d", got)
	}
	if got := poissonDraw(rng, -3); got != 0 {
		t.Errorf("poissonDraw(-3) = %d", got)
	}
	total := 0
	const n = 2000
	for i := 0; i < n; i++ {
		total += poissonDraw(rng, 4)
	}
	mean := float64(total) / n
	if mean < 3.7 || mean > 4.3 {
		t.Errorf("poisson mean = %v, want ~4", mean)
	}
}
