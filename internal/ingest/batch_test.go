package ingest

import (
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/trace"
)

// batchChunkRecords builds one chunk of keyable records that all share
// a timestamp inside the current period, so feeding the chunk any
// number of times never closes a period — the pure steady-state path.
func batchChunkRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		src := netip.AddrFrom4([4]byte{130, 216, byte(i % 7), byte(i)})
		dst := netip.AddrFrom4([4]byte{11, 0, 0, byte(i)})
		recs[i] = trace.Record{
			Ts:   10 * time.Second,
			Kind: packet.KindSYN,
			Dir:  trace.DirOut,
			Src:  src,
			Dst:  dst,
		}
		if i%3 == 0 {
			recs[i].Kind = packet.KindSYNACK
			recs[i].Dir = trace.DirIn
			recs[i].Src, recs[i].Dst = dst, src
		}
	}
	return recs
}

// TestBatchPathAllocs pins the batch pipeline's zero-allocation
// contract end to end: arena Get/Put per chunk, FeedBatch through the
// aggregator, and the keyed tracker's batch tap must allocate nothing
// once warm.
func TestBatchPathAllocs(t *testing.T) {
	recs := batchChunkRecords(DefaultChunk)
	det, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sourcetrack.New(sourcetrack.Config{
		KeyBits: 24,
		Agent:   core.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(20*time.Second, time.Hour, det, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetTap(tracker)
	arena := NewArena(DefaultChunk)

	feed := func() {
		buf := arena.Get()
		n := copy(buf, recs)
		if err := agg.FeedBatch(buf[:n]); err != nil {
			t.Fatal(err)
		}
		arena.Put(buf)
	}
	// Warm-up: admit the keys, grow the tracker's grouping scratch and
	// seed the arena's pool.
	feed()

	allocs := testing.AllocsPerRun(10, feed)
	if allocs != 0 {
		t.Errorf("steady-state batch feed allocated %.1f times per %d-record chunk, want 0",
			allocs, len(recs))
	}
}

// TestChanSourceDropMode pins the backpressure-shedding contract: a
// full drop-mode buffer sheds and counts instead of blocking, and the
// blocking constructor never drops.
func TestChanSourceDropMode(t *testing.T) {
	s := NewChanSourceDrop(2)
	for i := 0; i < 5; i++ {
		s.Send(trace.Record{Ts: time.Duration(i)})
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3 (buffer of 2, 5 sends)", got)
	}
	s.CloseSend()
	var buf [8]trace.Record
	n, err := s.NextBatch(buf[:])
	if n != 2 {
		t.Errorf("NextBatch kept %d records, want the 2 buffered", n)
	}
	if err == nil {
		// EOF may arrive with the data (EOF-mid-chunk) or on the next call.
		_, err = s.NextBatch(buf[:])
	}
	if err != io.EOF {
		t.Errorf("drained drop source reported %v, want io.EOF", err)
	}

	if NewChanSource(1).Dropped() != 0 {
		t.Error("blocking source reports drops")
	}
	// The DropCounter assertion the daemon relies on.
	var src Source = s
	if _, ok := src.(DropCounter); !ok {
		t.Error("ChanSource does not implement DropCounter")
	}
}

// fuzzDirs maps a direction byte to a record direction: bytes 0 and 1
// are out and in, and the rest are direction bytes a binary trace
// carries unchecked (the unset 0, and values past DirOut).
var fuzzDirs = [...]trace.Direction{trace.DirOut, trace.DirIn, 0, 3, 200}

// fuzzRecords decodes an arbitrary byte string into a record stream:
// 4 bytes per record (signed ts delta in 100ms steps, kind, dir, host
// byte). Kinds run past KindOther and directions past in and out, as a
// binary trace may carry them. Deliberately unclamped — negative and
// out-of-order timestamps must drive both paths into the same error at
// the same record.
func fuzzRecords(data []byte) []trace.Record {
	recs := make([]trace.Record, 0, len(data)/4)
	ts := time.Duration(0)
	for i := 0; i+4 <= len(data); i += 4 {
		ts += time.Duration(int8(data[i])) * 100 * time.Millisecond
		kind := packet.Kind(data[i+1] % 16)
		dir := fuzzDirs[int(data[i+2])%len(fuzzDirs)]
		h := data[i+3]
		src := netip.AddrFrom4([4]byte{130, 216, h, 1})
		dst := netip.AddrFrom4([4]byte{11, 0, 0, h})
		if dir == trace.DirIn {
			src, dst = dst, src
		}
		recs = append(recs, trace.Record{
			Ts: ts, Kind: kind, Dir: dir,
			Src: src, Dst: dst, SrcPort: 40000, DstPort: 80,
		})
	}
	return recs
}

func newFuzzTracker(t *testing.T) *sourcetrack.Tracker {
	t.Helper()
	tk, err := sourcetrack.New(sourcetrack.Config{
		KeyBits:    24,
		MaxSources: 8, // tiny, so eviction churn is in scope
		Agent:      core.Config{T0: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// FuzzBatchMatchesRecordPath is the batch pipeline's equivalence
// oracle. Over arbitrary record streams (including invalid ones) and
// arbitrary chunk sizes (including 1 and EOF-mid-chunk), the chunked
// path — NextBatch through an arena into FeedBatch, keyed tracker on
// the tap — must return the same error, the same volume counters, the
// same period reports and the same keyed tracker state as the
// per-record reference: one FeedBatch call per record, so every record
// meets every check itself. On streams trace.Validate accepts, the
// reports must also equal core.Agent.ProcessTrace (trace.Aggregate's
// binning) and the keyed view sourcetrack.Tracker.ProcessTrace (its
// own per-period slicing): references whose period walks share no code
// with the aggregator's. The 100 ms steps at t0 = 1 s put records
// exactly on period boundaries.
func FuzzBatchMatchesRecordPath(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{10, 1, 0, 1, 10, 2, 1, 1, 10, 1, 0, 2}, uint8(1))
	f.Add([]byte{100, 1, 0, 3, 0, 2, 1, 3, 50, 3, 0, 4, 50, 1, 0, 5}, uint8(3))
	f.Add([]byte{255, 1, 0, 1}, uint8(7))                             // negative delta: out-of-order/negative ts
	f.Add([]byte{127, 1, 0, 1, 127, 1, 0, 1, 127, 1, 0, 1}, uint8(2)) // past span
	// SYNs and SYN/ACKs of unknown direction, and unknown kinds: the
	// period counts must leave them out, as trace.Aggregate does.
	f.Add([]byte{5, 1, 2, 1, 5, 1, 3, 2, 5, 2, 4, 3, 5, 1, 0, 4, 5, 9, 1, 5, 5, 7, 0, 6}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, chunkByte uint8) {
		recs := fuzzRecords(data)
		const t0 = time.Second
		span := 8 * time.Second
		chunk := int(chunkByte%32) + 1

		// Reference: one single-record FeedBatch call per record.
		det1, err := core.NewAgent(core.Config{T0: t0})
		if err != nil {
			t.Fatal(err)
		}
		tk1 := newFuzzTracker(t)
		agg1, err := NewAggregator(t0, span, det1, nil)
		if err != nil {
			t.Fatal(err)
		}
		agg1.SetTap(tk1)
		var err1 error
		for i := range recs {
			if err1 = agg1.FeedBatch(recs[i : i+1]); err1 != nil {
				break
			}
		}
		if err1 == nil {
			err1 = agg1.Finish(0)
		}

		// Batch path: a TraceSource streamed chunk-at-a-time.
		det2, err := core.NewAgent(core.Config{T0: t0})
		if err != nil {
			t.Fatal(err)
		}
		tk2 := newFuzzTracker(t)
		agg2, err := NewAggregator(t0, span, det2, nil)
		if err != nil {
			t.Fatal(err)
		}
		agg2.SetTap(tk2)
		tr := &trace.Trace{Records: recs, Span: span}
		err2 := drain(NewTraceSource(tr), agg2, NewArena(chunk))
		if err2 == nil {
			err2 = agg2.Finish(0)
		}

		switch {
		case (err1 == nil) != (err2 == nil):
			t.Fatalf("error divergence: record path %v, batch path %v (chunk %d)", err1, err2, chunk)
		case err1 != nil && err1.Error() != err2.Error():
			t.Fatalf("different errors:\n record %v\n batch  %v (chunk %d)", err1, err2, chunk)
		}
		if agg1.Records() != agg2.Records() || agg1.Skipped() != agg2.Skipped() {
			t.Fatalf("volume divergence: record %d/%d, batch %d/%d",
				agg1.Records(), agg1.Skipped(), agg2.Records(), agg2.Skipped())
		}
		r1, r2 := det1.Reports(), det2.Reports()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("report divergence (chunk %d):\n record %+v\n batch  %+v", chunk, r1, r2)
		}
		v1, v2 := tk1.View(0), tk2.View(0)
		if !reflect.DeepEqual(v1, v2) {
			t.Fatalf("keyed state divergence (chunk %d):\n record %+v\n batch  %+v", chunk, v1, v2)
		}

		if tr.Validate() != nil {
			return
		}
		if err2 != nil {
			t.Fatalf("valid stream failed the pipeline: %v", err2)
		}
		agent, err := core.NewAgent(core.Config{T0: t0})
		if err != nil {
			t.Fatal(err)
		}
		want, err := agent.ProcessTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r2, want) {
			t.Fatalf("pipeline diverges from Agent.ProcessTrace (chunk %d):\n batch %+v\n want  %+v", chunk, r2, want)
		}
		tk3 := newFuzzTracker(t)
		if err := tk3.ProcessTrace(tr); err != nil {
			t.Fatal(err)
		}
		if v3 := tk3.View(0); !reflect.DeepEqual(v2, v3) {
			t.Fatalf("keyed view diverges from Tracker.ProcessTrace (chunk %d):\n batch %+v\n want  %+v", chunk, v2, v3)
		}
	})
}

// TestBatchMatchesRecordPathSeeds runs a real flood trace through the
// pipeline at several chunk sizes against Agent.ProcessTrace, so the
// equivalence holds on realistic streams in plain `go test` runs too.
func TestBatchMatchesRecordPathSeeds(t *testing.T) {
	tr := testTrace(t)
	want := processTraceReports(t, tr)
	for _, chunk := range []int{1, 2, 7, 64, DefaultChunk, 1 << 15} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			det, err := core.NewAgent(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			p := &Pipeline{
				Source:   NewTraceSource(tr),
				Detector: det,
				T0:       20 * time.Second,
				Arena:    NewArena(chunk),
			}
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			compareReports(t, det.Reports(), want)
		})
	}
}
