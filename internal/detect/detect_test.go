package detect

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// mkSeries builds benign periods followed by flood periods, with
// multiplicative noise.
func mkSeries(benign, flood int, baseline, floodExtra float64, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, benign+flood)
	for i := 0; i < benign+flood; i++ {
		ack := baseline * (1 + 0.1*rng.NormFloat64())
		if ack < 0 {
			ack = 0
		}
		syn := ack * 1.05
		if i >= benign {
			syn += floodExtra
		}
		out = append(out, Observation{OutSYN: syn, InSYNACK: ack})
	}
	return out
}

func TestStaticThresholdValidation(t *testing.T) {
	if _, err := NewStaticThreshold(0); err != ErrBadParam {
		t.Errorf("error = %v, want ErrBadParam", err)
	}
	if _, err := NewStaticThreshold(-5); err != ErrBadParam {
		t.Errorf("error = %v, want ErrBadParam", err)
	}
}

func TestStaticThresholdDetectsAndLatches(t *testing.T) {
	d, err := NewStaticThreshold(150)
	if err != nil {
		t.Fatal(err)
	}
	if d.Observe(Observation{OutSYN: 100}) {
		t.Error("alarm below threshold")
	}
	if !d.Observe(Observation{OutSYN: 200}) {
		t.Error("no alarm above threshold")
	}
	if !d.Observe(Observation{OutSYN: 10}) {
		t.Error("alarm did not latch")
	}
	d.Reset()
	if d.Observe(Observation{OutSYN: 10}) {
		t.Error("Reset failed")
	}
	if d.Name() != "static-threshold" {
		t.Error("name wrong")
	}
}

func TestRatioDetectorValidation(t *testing.T) {
	if _, err := NewRatioDetector(0.9, 1); err != ErrBadParam {
		t.Error("ratio <= 1 accepted")
	}
	if _, err := NewRatioDetector(2, 0); err != ErrBadParam {
		t.Error("zero floor accepted")
	}
}

func TestRatioDetectorBehavior(t *testing.T) {
	d, err := NewRatioDetector(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Observe(Observation{OutSYN: 150, InSYNACK: 100}) {
		t.Error("benign ratio alarmed")
	}
	if !d.Observe(Observation{OutSYN: 300, InSYNACK: 100}) {
		t.Error("3x ratio not alarmed")
	}
	d.Reset()
	// Floor guards division: 5 SYNs, 0 SYN/ACKs -> ratio 5 > 2.
	if !d.Observe(Observation{OutSYN: 5, InSYNACK: 0}) {
		t.Error("idle-link flood not caught via floor")
	}
	if d.Name() != "syn-synack-ratio" {
		t.Error("name wrong")
	}
}

func TestAdaptiveEWMAValidation(t *testing.T) {
	if _, err := NewAdaptiveEWMA(0.9, 0, 5); err != ErrBadParam {
		t.Error("zero k accepted")
	}
	if _, err := NewAdaptiveEWMA(0.9, 3, -1); err != ErrBadParam {
		t.Error("negative warmup accepted")
	}
	if _, err := NewAdaptiveEWMA(2, 3, 5); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestAdaptiveEWMADetectsStep(t *testing.T) {
	d, err := NewAdaptiveEWMA(0.9, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	series := mkSeries(30, 10, 100, 200, 1)
	res := Run(d, series)
	if res.FirstAlarm < 30 {
		t.Errorf("alarm at %d, before the flood at 30", res.FirstAlarm)
	}
	if res.FirstAlarm < 0 {
		t.Error("step flood not detected")
	}
}

func TestAdaptiveEWMAWarmupSuppressesEarlyAlarms(t *testing.T) {
	d, _ := NewAdaptiveEWMA(0.9, 3, 10)
	// Huge first observation: within warmup, must not alarm.
	if d.Observe(Observation{OutSYN: 1e6}) {
		t.Error("alarm during warmup")
	}
}

// periodCounts is one period's integer totals, as the sniffers deliver
// them to the agent and to the baselines alike.
type periodCounts struct{ syn, synAck uint64 }

// roundCounts rounds a float series to whole packet counts.
func roundCounts(series []Observation) []periodCounts {
	out := make([]periodCounts, len(series))
	for i, o := range series {
		out[i] = periodCounts{uint64(math.Round(o.OutSYN)), uint64(math.Round(o.InSYNACK))}
	}
	return out
}

// agentFirstAlarm replays series through SYN-dog's agent at the
// paper's parameters and returns its first alarm period, or -1.
func agentFirstAlarm(t *testing.T, series []periodCounts) int {
	t.Helper()
	a, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range series {
		a.Period(core.Period{
			Index: i,
			End:   core.DefaultObservationPeriod * time.Duration(i+1),
			Out:   core.PeriodCounts{SYN: c.syn},
			In:    core.PeriodCounts{SYNACK: c.synAck},
		})
	}
	if al := a.FirstAlarm(); al != nil {
		return al.Period
	}
	return -1
}

// baselineFirstAlarm replays series through a baseline with Run.
func baselineFirstAlarm(d Detector, series []periodCounts) int {
	obs := make([]Observation, len(series))
	for i, c := range series {
		obs[i] = Observation{OutSYN: float64(c.syn), InSYNACK: float64(c.synAck)}
	}
	return Run(d, obs).FirstAlarm
}

func TestCusumBeatsAdaptiveOnSlowRamp(t *testing.T) {
	// A slow ramp drags the adaptive baseline along; CUSUM accumulates
	// the normalized excess and still fires. This is the package-level
	// motivation for the paper's choice.
	rng := rand.New(rand.NewSource(9))
	var series []Observation
	for i := 0; i < 30; i++ {
		ack := 100 * (1 + 0.05*rng.NormFloat64())
		series = append(series, Observation{OutSYN: ack * 1.02, InSYNACK: ack})
	}
	for i := 0; i < 40; i++ {
		ack := 100 * (1 + 0.05*rng.NormFloat64())
		extra := 2.0 * float64(i+1) // grows 2 SYN/period
		series = append(series, Observation{OutSYN: ack*1.02 + extra, InSYNACK: ack})
	}
	counts := roundCounts(series)
	ada, _ := NewAdaptiveEWMA(0.7, 6, 10)
	cus := agentFirstAlarm(t, counts)
	adaFirst := baselineFirstAlarm(ada, counts)
	if cus < 0 {
		t.Fatal("CUSUM missed the ramp")
	}
	if adaFirst >= 0 && adaFirst <= cus {
		t.Errorf("adaptive (%d) beat CUSUM (%d) on a slow ramp", adaFirst, cus)
	}
}

func TestStaticThresholdIsSiteDependent(t *testing.T) {
	// The same absolute limit that is quiet on a small site fires
	// constantly on a big one — the portability failure SYN-dog's
	// normalization removes.
	limit := 500.0
	small := roundCounts(mkSeries(50, 0, 100, 0, 3)) // benign small site
	big := roundCounts(mkSeries(50, 0, 2000, 0, 4))  // benign big site
	dSmall, _ := NewStaticThreshold(limit)
	dBig, _ := NewStaticThreshold(limit)
	if baselineFirstAlarm(dSmall, small) >= 0 {
		t.Error("false alarm on small site")
	}
	if baselineFirstAlarm(dBig, big) < 0 {
		t.Error("expected the un-normalized threshold to false-alarm on the big site")
	}
	// SYN-dog's normalized rule is quiet on both.
	if agentFirstAlarm(t, small) >= 0 || agentFirstAlarm(t, big) >= 0 {
		t.Error("CUSUM false alarm on benign traffic")
	}
}

func TestRunResetsDetector(t *testing.T) {
	d, _ := NewStaticThreshold(10)
	if !d.Observe(Observation{OutSYN: 100}) {
		t.Fatal("setup failed")
	}
	res := Run(d, []Observation{{OutSYN: 1}})
	if res.FirstAlarm != -1 {
		t.Error("Run did not Reset the detector first")
	}
}
