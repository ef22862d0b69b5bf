package summary

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

func TestReportRoundTrip(t *testing.T) {
	r := core.Report{Index: 7, End: 160 * time.Second, OutSYN: 120, InSYNACK: 95,
		K: 88.5, X: 0.28, Y: 1.4, Alarmed: true}
	ps := FromReport("east", r)
	if ps.Monitor != "east" {
		t.Fatalf("monitor = %q", ps.Monitor)
	}
	if got := ps.Report(); got != r {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
}

func TestCensor(t *testing.T) {
	base := PeriodSummary{Monitor: "m", Index: 3, OutSYN: 10, InSYNACK: 9,
		K: 50, X: 0.12, Y: 0.3,
		Sources: []SourceDigest{{Key: netip.MustParsePrefix("10.0.0.0/24"), SYNs: 4}}}

	// Below λ: statistics zeroed, digests dropped, counters kept.
	c := base.Censor(Config{Censor: 0.2})
	if !c.Censored || c.X != 0 || c.Y != 0 || c.Sources != nil {
		t.Fatalf("censored form wrong: %+v", c)
	}
	if c.OutSYN != 10 || c.InSYNACK != 9 || c.K != 50 {
		t.Fatalf("censoring must keep volume counters: %+v", c)
	}

	// At or above λ: untouched but digest-trimmed.
	u := base.Censor(Config{Censor: 0.1, TopK: 1})
	if u.Censored || u.X != base.X || len(u.Sources) != 1 {
		t.Fatalf("uncensored form wrong: %+v", u)
	}

	// λ <= 0 disables censoring even for negative X.
	neg := base
	neg.X = -0.5
	if got := neg.Censor(Config{}); got.Censored {
		t.Fatalf("zero threshold must not censor: %+v", got)
	}

	// The receiver is never modified.
	if base.Censored || base.X != 0.12 || len(base.Sources) != 1 {
		t.Fatalf("Censor mutated its receiver: %+v", base)
	}
}

func TestEffectiveTopK(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultTopK}, {-1, 0}, {3, 3}} {
		if got := (Config{TopK: tc.in}).EffectiveTopK(); got != tc.want {
			t.Errorf("EffectiveTopK(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// flooded builds a tracker that has folded one period dominated by an
// unanswered /24.
func testTracker(t *testing.T) *sourcetrack.Tracker {
	t.Helper()
	tk, err := sourcetrack.New(sourcetrack.Config{
		KeyBits: 24, MaxSources: 16, Agent: core.Config{T0: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := netip.MustParseAddr("10.9.9.1")
	cold := netip.MustParseAddr("10.1.1.1")
	for i := 0; i < 50; i++ {
		tk.Observe(trace.Record{Ts: time.Second, Kind: packet.KindSYN, Dir: trace.DirOut, Src: hot})
	}
	tk.Observe(trace.Record{Ts: time.Second, Kind: packet.KindSYN, Dir: trace.DirOut, Src: cold})
	tk.Observe(trace.Record{Ts: time.Second, Kind: packet.KindSYNACK, Dir: trace.DirIn, Dst: cold})
	tk.ClosePeriod(0, 20*time.Second)
	return tk
}

func TestSummarizeDigests(t *testing.T) {
	tk := testTracker(t)
	s := &Summarizer{Monitor: "east", Cfg: Config{TopK: 1}, Tracker: tk}
	ps := s.Summarize(core.Report{Index: 0, End: 20 * time.Second, OutSYN: 51, InSYNACK: 1})
	if len(ps.Sources) != 1 {
		t.Fatalf("want 1 digest, got %+v", ps.Sources)
	}
	d := ps.Sources[0]
	if d.Key != netip.MustParsePrefix("10.9.9.0/24") {
		t.Fatalf("top digest should be the unanswered block, got %v", d.Key)
	}
	if d.SYNs != 50 {
		t.Fatalf("digest SYN count = %d, want 50", d.SYNs)
	}

	// Digest budget off: no tracker view is taken at all.
	s2 := &Summarizer{Monitor: "east", Cfg: Config{TopK: -1}, Tracker: tk}
	if ps := s2.Summarize(core.Report{}); ps.Sources != nil {
		t.Fatalf("TopK<0 must not attach digests: %+v", ps.Sources)
	}
}

func TestBackfill(t *testing.T) {
	s := &Summarizer{Monitor: "west"}
	reports := []core.Report{{Index: 0, OutSYN: 5}, {Index: 1, OutSYN: 6, Y: 0.2}}
	got := s.Backfill(reports)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	for i, ps := range got {
		if ps.Monitor != "west" || ps.Report() != reports[i] {
			t.Fatalf("backfill[%d] = %+v", i, ps)
		}
	}
}

// countingTap records the order of inner-tap calls relative to Emit.
type countingTap struct {
	records int
	closed  []int
	log     *[]string
}

func (c *countingTap) RecordBatch(recs []trace.Record) { c.records += len(recs) }
func (c *countingTap) ClosePeriod(i int, _ time.Duration) {
	c.closed = append(c.closed, i)
	*c.log = append(*c.log, "inner-close")
}

func TestTapOrdering(t *testing.T) {
	var log []string
	inner := &countingTap{log: &log}
	var got []PeriodSummary
	s := &Summarizer{Monitor: "m"}
	tap := NewTap(s, inner, func(ps PeriodSummary) {
		log = append(log, "emit")
		got = append(got, ps)
	})

	tap.RecordBatch([]trace.Record{{Kind: packet.KindSYN}})
	tap.RecordBatch([]trace.Record{{Kind: packet.KindSYN}, {Kind: packet.KindSYNACK}})
	rep := core.Report{Index: 0, End: 20 * time.Second, OutSYN: 2, InSYNACK: 1, X: 0.4}
	tap.Sink(rep)
	tap.ClosePeriod(0, 20*time.Second)

	if inner.records != 3 {
		t.Fatalf("inner saw %d records, want 3", inner.records)
	}
	if !reflect.DeepEqual(log, []string{"inner-close", "emit"}) {
		t.Fatalf("close ordering = %v; summary must be built after the inner fold", log)
	}
	if len(got) != 1 || got[0].Report() != rep {
		t.Fatalf("emitted = %+v", got)
	}
}

func TestUplinkBatchesAndCensors(t *testing.T) {
	var mu sync.Mutex
	var batches [][]PeriodSummary
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" {
			t.Errorf("path = %q", r.URL.Path)
		}
		body, _ := io.ReadAll(r.Body)
		var b []PeriodSummary
		if err := json.Unmarshal(body, &b); err != nil {
			t.Errorf("bad batch: %v", err)
		}
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
	}))
	defer srv.Close()

	u, err := NewUplink(UplinkConfig{URL: srv.URL, Summary: Config{Censor: 0.2}, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := 0.1
		if i%2 == 0 {
			x = 0.5
		}
		u.Send(PeriodSummary{Monitor: "m", Index: i, X: x, Y: x})
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if got := u.Sent(); got != 10 {
		t.Fatalf("sent = %d, want 10 (failures %d, dropped %d)", got, u.Failures(), u.Dropped())
	}

	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, b := range batches {
		if len(b) > 4 {
			t.Fatalf("batch of %d exceeds BatchSize", len(b))
		}
		for _, ps := range b {
			if ps.Index != n {
				t.Fatalf("out of order: got period %d at position %d", ps.Index, n)
			}
			wantCensored := n%2 != 0
			if ps.Censored != wantCensored || (ps.Censored && (ps.X != 0 || ps.Y != 0)) {
				t.Fatalf("censoring not applied on the wire: %+v", ps)
			}
			n++
		}
	}
	if n != 10 {
		t.Fatalf("delivered %d summaries, want 10", n)
	}
}

func TestUplinkDropsWhenFull(t *testing.T) {
	// A server that blocks until released: the queue must fill and Send
	// must shed, never block.
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-release
	}))
	defer srv.Close()

	u, err := NewUplink(UplinkConfig{URL: srv.URL, BatchSize: 2, Buffer: 4,
		FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		u.Send(PeriodSummary{Index: i})
	}
	if u.Dropped() == 0 {
		t.Fatal("full queue must drop and count")
	}
	close(release)
	u.Close()
	if total := u.Sent() + u.Dropped() + u.Failures(); total != 64 {
		t.Fatalf("accounting leak: sent %d + dropped %d + failed %d != 64",
			u.Sent(), u.Dropped(), u.Failures())
	}
}

func TestUplinkCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	u, err := NewUplink(UplinkConfig{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	u.Send(PeriodSummary{Index: 0})
	u.Close()
	if u.Failures() != 1 || u.Sent() != 0 {
		t.Fatalf("failures = %d sent = %d, want 1/0", u.Failures(), u.Sent())
	}

	// Sends after Close drop.
	u.Send(PeriodSummary{Index: 1})
	if u.Dropped() != 1 {
		t.Fatalf("post-Close send must drop, dropped = %d", u.Dropped())
	}
}
