package sourcetrack

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// feederConfig builds two identically-configured trackers so a direct
// feed and a Feeder-mediated feed can be compared state-for-state.
func feederConfig() Config {
	return Config{
		KeyBits:    24,
		MaxSources: 64,
		Shards:     4,
		Agent:      core.Config{T0: time.Second},
	}
}

// TestFeederMatchesDirectTap pins the SPSC feeder's exactness
// contract: pushing records through the per-shard rings and closing
// periods through the barrier yields a tracker state bit-identical to
// feeding the same tracker directly, period by period.
func TestFeederMatchesDirectTap(t *testing.T) {
	tr := mixedTrace(t, trace.Auckland(), 11, netip.MustParsePrefix("240.0.0.0/28"), 40)

	direct, err := New(feederConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(feederConfig())
	if err != nil {
		t.Fatal(err)
	}
	feeder := NewFeeder(fed)
	defer feeder.Close()

	t0 := feederConfig().Agent.T0
	boundary := t0
	flushAt := func(end time.Duration) {
		direct.ClosePeriod(0, end)
		feeder.ClosePeriod(0, end)
	}
	// The direct tracker takes one record at a time; the feeder takes
	// each period's records as one batch, so its per-shard chunking
	// (pushes at 256 ops and at the barrier) is in play.
	start := 0
	for i := range tr.Records {
		r := tr.Records[i]
		for r.Ts >= boundary {
			feeder.RecordBatch(tr.Records[start:i])
			start = i
			flushAt(boundary)
			boundary += t0
		}
		direct.Record(r)
	}
	feeder.RecordBatch(tr.Records[start:])
	flushAt(boundary)

	if direct.Periods() != fed.Periods() {
		t.Fatalf("periods: direct %d, feeder %d", direct.Periods(), fed.Periods())
	}
	dv, fv := direct.View(0), fed.View(0)
	if !reflect.DeepEqual(dv, fv) {
		t.Fatalf("state divergence:\n direct %+v\n feeder %+v", dv, fv)
	}
}

// TestFeederClosePeriodBarrier pins the barrier semantics: every
// record enqueued before ClosePeriod must be applied before the
// period closes, even when far fewer than a ring chunk is pending.
func TestFeederClosePeriodBarrier(t *testing.T) {
	tk, err := New(feederConfig())
	if err != nil {
		t.Fatal(err)
	}
	feeder := NewFeeder(tk)
	defer feeder.Close()

	rec := trace.Record{
		Ts: 0, Kind: packet.KindSYN, Dir: trace.DirOut,
		Src: netip.MustParseAddr("130.216.1.1"),
		Dst: netip.MustParseAddr("11.0.0.1"),
	}
	for p := 0; p < 5; p++ {
		// 3 records per period: far below the 256-op push threshold, so
		// only the barrier's flush can get them applied in time.
		for i := 0; i < 3; i++ {
			feeder.RecordBatch([]trace.Record{rec})
		}
		feeder.ClosePeriod(p, time.Duration(p+1)*time.Second)
	}
	if got := tk.Periods(); got != 5 {
		t.Fatalf("periods = %d, want 5", got)
	}
	if got := tk.Stats().SYNs; got != 15 {
		t.Errorf("keyed SYNs = %d, want 15 (3 per period × 5, none lost at barriers)", got)
	}
	srcs := tk.Sources(1)
	if len(srcs) != 1 {
		t.Fatalf("tracked sources = %d, want 1", len(srcs))
	}
	if got := srcs[0].Count; got != 15 {
		t.Errorf("Space-Saving count = %d, want 15", got)
	}
}
