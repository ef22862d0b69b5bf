package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/fusion"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/trace"
)

const (
	// floodRate is the capture's constant flood, ≈10× UNC's Eq. 8
	// floor (0.35 · 2114 / 20 s ≈ 37 SYN/s).
	floodRate = 400
	// checkpointEvery is the tracker checkpoint cadence in periods.
	checkpointEvery = 10
)

var (
	t0         = core.DefaultObservationPeriod
	victimAddr = netip.MustParseAddr("11.99.99.1")
	stubPrefix = trace.UNC().Prefix
	// trackerCfg is the live-keyed tracker: /24 keys, 1024 states over
	// 2 shards, as syndogd -track-sources runs it on a 2-CPU host.
	trackerCfg = sourcetrack.Config{KeyBits: 24, MaxSources: 1024, Shards: 2, Agent: core.Config{T0: t0}}
	// fusionCfg and wireCfg are the distributed experiment's coordinator
	// rule and uplink censoring.
	fusionCfg = fusion.Config{Expect: 4, History: 20, MinHistory: 8, Offset: 0.35, Threshold: 1.4}
	wireCfg   = summary.Config{Censor: 0.08}
)

// captureBench is the replay and live-keyed workloads: one pcap
// capture, written at setup, replayed each pass through ingest.Open
// (replay) or through capture.Source with the keyed tap, summaries and
// fusion around it (live-keyed).
type captureBench struct {
	keyed bool
	seed  int64
	sc    scale
	path  string
	arena *ingest.Arena
	// ref.View is a tracker of the same shard layout (exact);
	// ref.OneShard the deterministic one-shard replay, of which only the
	// heavy hitters must agree, since Space-Saving capacity is per shard.
	ref refs
}

// setup writes the capture and builds the references.
func (b *captureBench) setup() (refs, error) {
	tr, err := synthCapture(b.seed, b.sc)
	if err != nil {
		return refs{}, err
	}
	if err := writePcap(b.path, tr); err != nil {
		return refs{}, err
	}
	r := refs{Frames: len(tr.Records)}
	if r.Reports, err = referenceReports(tr); err != nil {
		return refs{}, err
	}
	if !b.keyed {
		return r, nil
	}
	if r.View, err = referenceView(trackerCfg, tr); err != nil {
		return refs{}, err
	}
	one := trackerCfg
	one.Shards = 1
	if r.OneShard, err = referenceView(one, tr); err != nil {
		return refs{}, err
	}
	r.Peers, err = peerStreams(b.seed, b.sc)
	return r, err
}

func (b *captureBench) load(r refs) { b.ref = r }

// referenceView replays tr through a tracker the way a live stream
// reaches it: ProcessTrace folds the complete periods record by
// record, then the trailing partial period is observed without a
// close — a live aggregator learns the span only at EOF, so it taps
// those records too.
func referenceView(cfg sourcetrack.Config, tr *trace.Trace) (sourcetrack.TrackerView, error) {
	t, err := sourcetrack.New(cfg)
	if err != nil {
		return sourcetrack.TrackerView{}, err
	}
	if err := t.ProcessTrace(tr); err != nil {
		return sourcetrack.TrackerView{}, err
	}
	tail := t0 * (tr.Span / t0)
	for _, r := range tr.Records[sort.Search(len(tr.Records), func(i int) bool { return tr.Records[i].Ts >= tail }):] {
		t.Observe(r)
	}
	return t.View(0), nil
}

// synthCapture builds the capture's trace: a UNC-profile background
// with a constant flood spoofed across 240.0.0.0/4. Timestamps are cut
// to the microseconds a classic pcap stores and the span is the one a
// streamed capture learns (last timestamp + 1), so the references see
// exactly the trace the file holds.
func synthCapture(seed int64, sc scale) (*trace.Trace, error) {
	p := trace.UNC()
	p.Span = sc.span
	bg, err := trace.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	fl, err := flood.GenerateTrace(flood.Config{
		Start:      sc.onset,
		Duration:   sc.floodDur,
		Pattern:    flood.Constant{PerSecond: floodRate},
		Victim:     victimAddr,
		VictimPort: 80,
		Seed:       seed + 7919,
	})
	if err != nil {
		return nil, err
	}
	tr := trace.Merge("unc+flood", bg, fl)
	tr.ClipSpan(p.Span)
	if len(tr.Records) == 0 {
		return nil, errors.New("empty capture")
	}
	for i := range tr.Records {
		tr.Records[i].Ts = tr.Records[i].Ts.Truncate(time.Microsecond)
	}
	tr.Span = tr.Records[len(tr.Records)-1].Ts + 1
	return tr, nil
}

func writePcap(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WritePcap(bw, tr); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceReports is the counts-path reference: core.Agent.ProcessCounts
// over trace.Aggregate, the equivalence contract the streaming pipeline
// must meet.
func referenceReports(tr *trace.Trace) ([]core.Report, error) {
	counts, err := tr.Aggregate(t0)
	if err != nil {
		return nil, err
	}
	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		return nil, err
	}
	return agent.ProcessCounts(counts)
}

// peerStreams builds the three peer monitors the live coordinator fuses
// with: LBL, Harvard and Auckland backgrounds over the capture's span,
// each carrying 0.5× its own floor from the capture's onset (the
// distributed experiment's split flood), summarized period by period
// and censored to the wire form.
func peerStreams(seed int64, sc scale) ([][]summary.PeriodSummary, error) {
	profiles := []trace.Profile{trace.LBL(), trace.Harvard(), trace.Auckland()}
	out := make([][]summary.PeriodSummary, len(profiles))
	for i, p := range profiles {
		p.Span = sc.span
		bg, err := trace.Generate(p, seed+int64(i+1)*104729)
		if err != nil {
			return nil, err
		}
		counts, err := bg.Aggregate(t0)
		if err != nil {
			return nil, err
		}
		var kbar float64
		for _, v := range counts.InSYNACK {
			kbar += v
		}
		kbar /= float64(counts.Periods())
		fmin := core.Config{T0: t0}.Normalized().Offset * kbar / t0.Seconds()
		fl, err := flood.GenerateTrace(flood.Config{
			Start:       sc.onset,
			Duration:    sc.floodDur,
			Pattern:     flood.Constant{PerSecond: 0.5 * fmin},
			Victim:      victimAddr,
			VictimPort:  80,
			SpoofPrefix: netip.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)),
			Seed:        seed + int64(i+1)*7919,
		})
		if err != nil {
			return nil, err
		}
		tr := trace.Merge(p.Name+"+flood", bg, fl)
		tr.ClipSpan(p.Span)
		agent, err := core.NewAgent(core.Config{T0: t0})
		if err != nil {
			return nil, err
		}
		tracker, err := sourcetrack.New(sourcetrack.Config{KeyBits: 24, Agent: core.Config{T0: t0}})
		if err != nil {
			return nil, err
		}
		tap := summary.NewTap(&summary.Summarizer{Monitor: p.Name, Tracker: tracker}, tracker,
			func(ps summary.PeriodSummary) { out[i] = append(out[i], ps.Censor(wireCfg)) })
		pl := &ingest.Pipeline{
			Source:   ingest.NewTraceSource(tr),
			Detector: ingest.WrapAgent(agent),
			T0:       t0,
			Sink:     tap.Sink,
			Tap:      tap,
		}
		if err := pl.Run(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pass replays the capture once.
func (b *captureBench) pass(tr *tracer) (passResult, error) {
	if b.keyed {
		return b.livePass(tr)
	}
	return b.replayPass(tr)
}

// batchSource is the face of a record source the drive loop uses; the
// ingest.Open pcap source and capture.Source both provide it.
type batchSource interface {
	NextBatch(buf []trace.Record) (int, error)
	Span() time.Duration
}

// drive runs src through agg to completion with the loop
// ingest.Pipeline.Run and syndogd's live replay share: fill a chunk
// with NextBatch, fold it with FeedBatch, then close the complete
// periods at the span the source learned by EOF.
func drive(src batchSource, agg *ingest.Aggregator, buf []trace.Record, tr *tracer) error {
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			id := tr.begin("ingest.feed")
			ferr := agg.FeedBatch(buf[:n])
			tr.end(id)
			if ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	id := tr.begin("ingest.finish")
	err := agg.Finish(src.Span())
	tr.end(id)
	return err
}

// replayPass is syndog on a forensic capture: ingest.Open → aggregator
// → wrapped CUSUM agent, no tracker.
func (b *captureBench) replayPass(tr *tracer) (passResult, error) {
	src, _, err := ingest.Open(b.path, stubPrefix)
	if err != nil {
		return passResult{}, err
	}
	defer src.Close()
	bs, ok := src.(batchSource)
	if !ok {
		return passResult{}, errors.New("pcap source has no batch face")
	}
	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		return passResult{}, err
	}
	var det ingest.Detector = ingest.WrapAgent(agent)
	if tr != nil {
		bs = timedSource{bs, tr, "trace.decode"}
		det = timedDetector{det, tr}
	}
	agg, err := ingest.NewAggregator(t0, 0, det, nil)
	if err != nil {
		return passResult{}, err
	}
	buf := b.arena.Get()
	defer b.arena.Put(buf)
	if err := drive(bs, agg, buf, tr); err != nil {
		return passResult{}, err
	}
	return passResult{
		records: agg.Records(),
		reports: agent.Reports(),
		counters: map[string]float64{
			"ingest.records_per_pass": float64(agg.Records()),
			"ingest.periods_per_pass": float64(agg.Done()),
		},
	}, nil
}

// livePass is syndogd's live:pcap: path: capture.Source over the pcap
// byte stream feeding the aggregator, with the summary tap around a
// sharded tracker, an in-process fusion coordinator and reader traffic
// (a /sources view every period, a checkpoint every checkpointEvery).
func (b *captureBench) livePass(tr *tracer) (passResult, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return passResult{}, err
	}
	fr, err := capture.NewPcapReader(f, f)
	if err != nil {
		f.Close()
		return passResult{}, err
	}
	src, err := capture.NewSource(fr, capture.Config{StubPrefix: stubPrefix, Name: "live:pcap:" + b.path})
	if err != nil {
		fr.Close()
		return passResult{}, err
	}
	defer src.Close()

	agent, err := core.NewAgent(core.Config{T0: t0})
	if err != nil {
		return passResult{}, err
	}
	tracker, err := sourcetrack.New(trackerCfg)
	if err != nil {
		return passResult{}, err
	}
	coord, err := fusion.NewCoordinator(fusionCfg)
	if err != nil {
		return passResult{}, err
	}

	var (
		bs    batchSource       = src
		det   ingest.Detector   = ingest.WrapAgent(agent)
		inner summary.RecordTap = tracker
		shim  *timedTap
	)
	if tr != nil {
		bs = timedSource{bs, tr, "capture.wait"}
		det = timedDetector{det, tr}
		shim = &timedTap{inner: tracker, tr: tr}
		inner = shim
	}
	var (
		emitErr error
		batch   = make([]summary.PeriodSummary, 0, 1+len(b.ref.Peers))
	)
	emit := func(ps summary.PeriodSummary) {
		if shim != nil {
			tr.end(shim.summarize)
		}
		id := tr.begin("summary.emit")
		batch = append(batch[:0], ps.Censor(wireCfg))
		for _, peer := range b.ref.Peers {
			if ps.Index < len(peer) {
				batch = append(batch, peer[ps.Index])
			}
		}
		fid := tr.begin("fusion.ingest")
		coord.Ingest(batch)
		tr.end(fid)
		if tr != nil {
			tr.closeLat = append(tr.closeLat, tr.now()-tr.periodAt)
		}
		vid := tr.begin("sourcetrack.view")
		tracker.View(0)
		tr.end(vid)
		if (ps.Index+1)%checkpointEvery == 0 {
			sid := tr.begin("sourcetrack.snapshot")
			_, err := tracker.Snapshot().Encode()
			tr.end(sid)
			if err != nil && emitErr == nil {
				emitErr = err
			}
		}
		tr.end(id)
	}
	tap := summary.NewTap(&summary.Summarizer{Monitor: "UNC", Tracker: tracker}, inner, emit)
	agg, err := ingest.NewAggregator(t0, 0, det, tap.Sink)
	if err != nil {
		return passResult{}, err
	}
	agg.SetTap(tap)
	buf := b.arena.Get()
	defer b.arena.Put(buf)
	if err := drive(bs, agg, buf, tr); err != nil {
		return passResult{}, err
	}
	if emitErr != nil {
		return passResult{}, emitErr
	}
	if err := src.Close(); err != nil {
		return passResult{}, err
	}
	cs := src.Stats()
	st := tracker.Stats()
	return passResult{
		records: agg.Records(),
		reports: agent.Reports(),
		view:    tracker.View(0),
		capture: cs,
		fused:   coord.FirstAlarm(),
		counters: map[string]float64{
			"ingest.records_per_pass":                float64(agg.Records()),
			"ingest.periods_per_pass":                float64(agg.Done()),
			"capture.frames_per_pass":                float64(cs.Frames),
			"capture.ring_drops_per_pass":            float64(cs.RingDropped),
			"sourcetrack.syns_per_pass":              float64(st.SYNs),
			"sourcetrack.evictions_per_pass":         float64(st.Evicted),
			"sourcetrack.untracked_synacks_per_pass": float64(st.UntrackedSYNACKs),
			"sourcetrack.evictions_per_syn":          ratio(st.Evicted, st.SYNs),
			"sourcetrack.untracked_synack_frac":      ratio(st.UntrackedSYNACKs, st.SYNACKs+st.UntrackedSYNACKs),
		},
	}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedSource times NextBatch on the source it wraps: the pcap decode
// on replay, the wait on the capture ring on live-keyed.
type timedSource struct {
	batchSource
	tr   *tracer
	name string
}

func (s timedSource) NextBatch(buf []trace.Record) (int, error) {
	id := s.tr.begin(s.name)
	n, err := s.batchSource.NextBatch(buf)
	s.tr.end(id)
	return n, err
}

// timedDetector times Detector.Period and marks the start of the
// period close that pipeline.close measures.
type timedDetector struct {
	ingest.Detector
	tr *tracer
}

func (d timedDetector) Period(p ingest.Period) core.Report {
	d.tr.periodAt = d.tr.now()
	id := d.tr.begin("core.period")
	r := d.Detector.Period(p)
	d.tr.end(id)
	return r
}

// timedTap times the tracker's tap calls. When the tracker's period
// close returns it opens summary.summarize, which the emit callback
// closes on entry: the span is the summarizer's work in between.
type timedTap struct {
	inner     *sourcetrack.Tracker
	tr        *tracer
	summarize int32
}

func (t *timedTap) Record(r trace.Record) {
	id := t.tr.begin("sourcetrack.observe")
	t.inner.Record(r)
	t.tr.end(id)
}

func (t *timedTap) RecordBatch(recs []trace.Record) {
	id := t.tr.begin("sourcetrack.observe")
	t.inner.RecordBatch(recs)
	t.tr.end(id)
}

func (t *timedTap) ClosePeriod(index int, end time.Duration) {
	id := t.tr.begin("sourcetrack.close")
	t.inner.ClosePeriod(index, end)
	t.tr.end(id)
	t.summarize = t.tr.begin("summary.summarize")
}
