package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

// truncateCounts returns the first k periods of pc, sharing storage
// (ProcessCounts never mutates its input).
func truncateCounts(pc *trace.PeriodCounts, k int) *trace.PeriodCounts {
	return &trace.PeriodCounts{T0: pc.T0, OutSYN: pc.OutSYN[:k], InSYNACK: pc.InSYNACK[:k]}
}

// TestProcessCountsResumeEquivalence is the property test behind the
// daemon's resume story on the fast path: snapshot after a random
// number of periods, restore, finish from the full counts — the final
// serialized snapshot must be byte-identical to an uninterrupted run's.
func TestProcessCountsResumeEquivalence(t *testing.T) {
	p := trace.UNC()
	p.Span = 10 * time.Minute
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		tr, err := trace.Generate(p, int64(100+trial))
		if err != nil {
			t.Fatal(err)
		}
		pc, err := tr.Aggregate(DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}

		ref, _ := NewAgent(Config{})
		if _, err := ref.ProcessCounts(pc); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.WriteSnapshot(&want); err != nil {
			t.Fatal(err)
		}

		k := rng.Intn(pc.Periods() + 1)
		a1, _ := NewAgent(Config{})
		if k > 0 {
			if _, err := a1.ProcessCounts(truncateCounts(pc, k)); err != nil {
				t.Fatal(err)
			}
		}
		a2, err := RestoreAgent(a1.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a2.ProcessCounts(pc); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := a2.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("trial %d (k=%d): resumed snapshot differs from uninterrupted run:\n%s\nvs\n%s",
				trial, k, got.String(), want.String())
		}
	}
}

// TestProcessCountsMixedResume crosses the two entry points
// mid-stream: half the trace through ProcessTrace, snapshot, then the
// rest from counts.
func TestProcessCountsMixedResume(t *testing.T) {
	p := trace.Auckland()
	p.Span = 8 * time.Minute
	tr, err := trace.Generate(p, 57)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewAgent(Config{})
	want, err := ref.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}

	half := time.Duration(pc.Periods()/2) * DefaultObservationPeriod
	a1, _ := NewAgent(Config{})
	if _, err := a1.ProcessTrace(truncateTrace(tr, half)); err != nil {
		t.Fatal(err)
	}
	a2, err := RestoreAgent(a1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := a2.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestProcessCountsFullHistoryIsNoop(t *testing.T) {
	p := trace.Auckland()
	p.Span = 4 * time.Minute
	tr, err := trace.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.Aggregate(DefaultObservationPeriod)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAgent(Config{})
	first, err := a.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}
	n := len(first)
	again, err := a.ProcessCounts(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != n {
		t.Errorf("second replay grew reports %d -> %d (double count)", n, len(again))
	}
}

func TestProcessCountsValidation(t *testing.T) {
	a, _ := NewAgent(Config{})
	if _, err := a.ProcessCounts(nil); err == nil {
		t.Error("nil counts accepted")
	}
	if _, err := a.ProcessCounts(&trace.PeriodCounts{T0: DefaultObservationPeriod}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := a.ProcessCounts(&trace.PeriodCounts{
		T0: time.Second, OutSYN: []float64{1}, InSYNACK: []float64{1},
	}); err == nil {
		t.Error("mismatched T0 accepted")
	}
	if _, err := a.ProcessCounts(&trace.PeriodCounts{
		T0: DefaultObservationPeriod, OutSYN: []float64{1, 2}, InSYNACK: []float64{1},
	}); err == nil {
		t.Error("misaligned slices accepted")
	}
	for _, bad := range []float64{-1, 0.5, 1 << 60} {
		if _, err := a.ProcessCounts(&trace.PeriodCounts{
			T0: DefaultObservationPeriod, OutSYN: []float64{bad}, InSYNACK: []float64{0},
		}); err == nil {
			t.Errorf("non-count OutSYN %v accepted", bad)
		}
	}
	if len(a.Reports()) != 0 {
		t.Errorf("rejected inputs still appended %d reports", len(a.Reports()))
	}
}

// periodLog is a Detector that records the periods it is handed.
type periodLog struct{ got []Period }

func (l *periodLog) Period(p Period) Report {
	l.got = append(l.got, p)
	return Report{Index: p.Index, End: p.End}
}
func (l *periodLog) Periods() int       { return len(l.got) }
func (l *periodLog) Reports() []Report  { return nil }
func (l *periodLog) Alarmed() bool      { return false }
func (l *periodLog) FirstAlarm() *Alarm { return nil }
func (l *periodLog) KBar() float64      { return 0 }
func (l *periodLog) Name() string       { return "log" }

// TestReplayCountsFeedsAnyDetector pins the counts walk on the
// Detector contract itself, the way the baselines see it: each period
// arrives once with its index, its end T0·(i+1) and its two totals; a
// detector already holding periods is resumed after them; a bad count
// stops the walk with the periods before it folded.
func TestReplayCountsFeedsAnyDetector(t *testing.T) {
	pc := &trace.PeriodCounts{T0: 5 * time.Second, OutSYN: []float64{3, 1, 4, 1}, InSYNACK: []float64{2, 7, 1, 8}}
	l := &periodLog{got: []Period{{}}} // resumed: one period already held
	if err := ReplayCounts(l, pc); err != nil {
		t.Fatal(err)
	}
	if len(l.got) != 4 {
		t.Fatalf("detector holds %d periods, want 4", len(l.got))
	}
	for i := 1; i < 4; i++ {
		want := Period{
			Index: i, End: 5 * time.Second * time.Duration(i+1),
			Out: PeriodCounts{SYN: uint64(pc.OutSYN[i])},
			In:  PeriodCounts{SYNACK: uint64(pc.InSYNACK[i])},
		}
		if l.got[i] != want {
			t.Errorf("period %d = %+v, want %+v", i, l.got[i], want)
		}
	}

	bad := &trace.PeriodCounts{T0: time.Second, OutSYN: []float64{1, 2, -1}, InSYNACK: []float64{0, 0, 0}}
	l = &periodLog{}
	if err := ReplayCounts(l, bad); err == nil {
		t.Error("negative count accepted")
	}
	if len(l.got) != 2 {
		t.Errorf("%d periods folded before the bad count, want 2", len(l.got))
	}
}

// TestRestartMatchesFresh pins the sweep-pooling contract: an agent
// Restarted after a full (alarming) run is indistinguishable from a
// freshly constructed one — reports, final state and serialized
// snapshot alike.
func TestRestartMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{{}, {WarmupPeriods: 3, Alpha: 0.8}} {
		p := trace.UNC()
		p.Span = 8 * time.Minute
		first, err := trace.Generate(p, 61)
		if err != nil {
			t.Fatal(err)
		}
		firstPC, err := first.Aggregate(DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}
		// Push the first run into an alarm, so Restart has a latched
		// detector, a primed EWMA and a recorded alarm to clear.
		for i := range firstPC.OutSYN {
			if i >= firstPC.Periods()/2 {
				firstPC.OutSYN[i] += 5000
			}
		}
		second, err := trace.Generate(p, 62)
		if err != nil {
			t.Fatal(err)
		}
		secondPC, err := second.Aggregate(DefaultObservationPeriod)
		if err != nil {
			t.Fatal(err)
		}

		reused, _ := NewAgent(cfg)
		if _, err := reused.ProcessCounts(firstPC); err != nil {
			t.Fatal(err)
		}
		if !reused.Alarmed() {
			t.Fatal("first run did not alarm; Restart not exercised")
		}
		reused.Restart()
		got, err := reused.ProcessCounts(secondPC)
		if err != nil {
			t.Fatal(err)
		}

		fresh, _ := NewAgent(cfg)
		want, err := fresh.ProcessCounts(secondPC)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d reports, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("report %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		var gotSnap, wantSnap bytes.Buffer
		if err := reused.WriteSnapshot(&gotSnap); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteSnapshot(&wantSnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
			t.Errorf("restarted snapshot differs from fresh:\n%s\nvs\n%s", gotSnap.String(), wantSnap.String())
		}
	}
}
