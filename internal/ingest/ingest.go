// Package ingest defines the layered streaming pipeline the paper's
// Figure 2 describes: a Source yields classified packet records a
// chunk at a time, the Aggregator folds them into per-period counts,
// and a Detector turns each closed period into a detection decision.
// Every binary and experiment constructs the same pipeline with
// different sources and detectors:
//
//	Source → (Classify) → Aggregate → Detect → Sink
//
// Classification happens inside the packet-backed sources (pcap and
// live captures) through trace.FrameParser; record-backed sources
// (binary, CSV, in-memory traces, simulator taps) carry the kind
// already. The whole path is O(1) in trace length: nothing past
// the current chunk and the current period's counts is retained,
// which is what lets the daemon ingest captures larger than memory.
//
// The Aggregator is the only code that walks a record stream into
// periods; an in-memory trace is binned by trace.Aggregate instead and
// replayed by core.ReplayCounts. The Detector is core's contract: the
// paper's *core.Agent, whose every closed period becomes a decision
// through core.Fold, or a wrapped internal/detect baseline. For any
// valid trace the two paths agree: streaming it through the pipeline
// yields the reports core.Agent.ProcessTrace (trace.Aggregate in front
// of ProcessCounts) yields, which the package's tests pin.
package ingest

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Source is a pull iterator over classified packet records, a chunk
// at a time. NextBatch fills buf with up to len(buf) records and
// returns how many it wrote. io.EOF — which may arrive together with
// n > 0 (EOF mid-chunk) — marks a clean end of stream; any other error
// invalidates nothing before buf[n]. Sources that wrap files release
// them in Close; Close is safe to call after an error.
type Source interface {
	NextBatch(buf []trace.Record) (n int, err error)
	Close() error
}

// SpanSource is implemented by sources that know the capture span —
// either up front (binary header, in-memory trace) or only once the
// stream is exhausted (pcap, tcpdump text). A zero return means "not
// yet known"; the pipeline re-queries at EOF.
type SpanSource interface {
	Span() time.Duration
}

// NamedSource is implemented by sources whose container carries a
// trace name (binary header, CSV header line). Like the span, the name
// may only be final once the stream is exhausted.
type NamedSource interface {
	Name() string
}

// Sink receives each period report as it closes. Nil sinks are
// allowed.
type Sink func(core.Report)

// RecordTap observes the records the aggregator counts plus every
// period close — the keyed demux hook. The aggregator guarantees the
// tap sees exactly the records the aggregate detector's counts came
// from, in order, one counted run per RecordBatch call:
// resume-skipped and past-span records never reach it, and
// ClosePeriod fires at the same boundaries the detector folds.
// internal/sourcetrack implements it; ingest stays detector-agnostic.
type RecordTap interface {
	RecordBatch(recs []trace.Record)
	ClosePeriod(index int, end time.Duration)
}

// Aggregator is the push-side period folder and the one record→period
// walk in the program: feed it time-ordered chunks of records and it
// counts them into the current period, closing each period boundary
// through the Detector. It skips records in periods the detector
// already holds (resume), closes a period every t0, and discards the
// trailing partial period — the same binning trace.Aggregate applies
// to an in-memory trace, so both produce bit-identical reports.
type Aggregator struct {
	t0   time.Duration
	det  Detector
	sink Sink
	tap  RecordTap

	span    time.Duration // 0 while unknown
	periods int           // span / t0; -1 while span unknown
	done    int
	next    time.Duration // end of the current open period
	resumed time.Duration // records before this were counted pre-snapshot

	// tally holds the open period's counts indexed by direction and
	// kind, each clamped to its last slot: a table increment in place
	// of a branch per kind, which mispredicts on mixed traffic. Only
	// the DirOut and DirIn rows feed the period.
	tally [4][8]uint64

	lastTs    time.Duration
	sawRecord bool
	records   int
	skipped   int
}

// NewAggregator builds an aggregator folding periods of t0 into det.
// span may be 0 when the source only learns it at EOF (pcap); pass the
// final value to Finish instead. The detector's existing period count
// becomes the resume offset.
func NewAggregator(t0 time.Duration, span time.Duration, det Detector, sink Sink) (*Aggregator, error) {
	if t0 <= 0 {
		return nil, errors.New("ingest: non-positive observation period")
	}
	if span < 0 {
		return nil, errors.New("ingest: negative span")
	}
	a := &Aggregator{
		t0:      t0,
		det:     det,
		sink:    sink,
		periods: -1,
		done:    det.Periods(),
	}
	a.resumed = t0 * time.Duration(a.done)
	a.next = a.resumed + t0
	if span > 0 {
		a.span = span
		a.periods = int(span / t0)
	}
	return a, nil
}

// SetTap attaches a keyed demux tap. It must be set before the first
// FeedBatch; the tap then sees every counted record and period close.
func (a *Aggregator) SetTap(tap RecordTap) {
	a.tap = tap
}

// FeedBatch counts a chunk of time-ordered records, closing any period
// boundaries they cross. Records inside already-resumed periods are
// skipped, and records past the last complete period are ignored (the
// trailing partial period is discarded, mirroring trace.Aggregate). A
// negative, out-of-order or out-of-span record is an error; records
// before it are fully counted. The outcome does not depend on how the
// stream is cut into chunks — same counts, boundary closes, tap
// sequence and error — and records are processed in runs that share
// one boundary/span/resume decision, so the inner loop is a
// timestamp-order check and a counter increment.
func (a *Aggregator) FeedBatch(recs []trace.Record) error {
	i, n := 0, len(recs)
	for i < n {
		r := &recs[i]
		// Head-of-run validation. Records inside the run are covered by
		// the run's scan invariant (non-decreasing and below the open
		// period's end).
		if r.Ts < 0 {
			return fmt.Errorf("ingest: record with negative timestamp %v", r.Ts)
		}
		if a.sawRecord && r.Ts < a.lastTs {
			return fmt.Errorf("ingest: record at %v out of order (previous at %v)", r.Ts, a.lastTs)
		}
		if a.span > 0 && r.Ts >= a.span {
			return fmt.Errorf("ingest: record at %v outside span %v", r.Ts, a.span)
		}
		if r.Ts < a.resumed {
			// Resume-skip: counted before the snapshot was taken.
			a.lastTs, a.sawRecord = r.Ts, true
			a.records++
			a.skipped++
			i++
			continue
		}
		for r.Ts >= a.next && (a.periods < 0 || a.done < a.periods) {
			a.closePeriod()
		}
		if a.periods >= 0 && a.done >= a.periods {
			// Past the last complete period: validated and tallied but
			// never counted.
			a.lastTs, a.sawRecord = r.Ts, true
			a.records++
			i++
			continue
		}
		// The run: every following record that keeps time order and
		// stays inside the open period. Within the run no record can be
		// negative (>= head), out of span (Ts < next <= span), in a
		// resumed period (>= head >= resumed), or across a boundary —
		// one check per chunk segment instead of four per record.
		next, prev := a.next, r.Ts
		j := i + 1
		for j < n {
			ts := recs[j].Ts
			if ts < prev || ts >= next {
				break
			}
			prev = ts
			j++
		}
		for k := i; k < j; k++ {
			a.count(&recs[k])
		}
		a.lastTs, a.sawRecord = prev, true
		a.records += j - i
		if a.tap != nil {
			a.tap.RecordBatch(recs[i:j])
		}
		i = j
	}
	return nil
}

// count adds one record to the open period's tally. Only DirOut and
// DirIn records of the four counted kinds reach the period, exactly
// as trace.Aggregate and Sniffer.Count tally nothing observable for
// the rest.
func (a *Aggregator) count(r *trace.Record) {
	a.tally[min(r.Dir, 3)][min(r.Kind, 7)]++
}

// periodCounts reads one direction's row of the tally.
func periodCounts(row *[8]uint64) core.PeriodCounts {
	return core.PeriodCounts{
		SYN:    row[packet.KindSYN],
		SYNACK: row[packet.KindSYNACK],
		FIN:    row[packet.KindFIN],
		RST:    row[packet.KindRST],
	}
}

// closePeriod folds the open period into the detector and starts the
// next one.
func (a *Aggregator) closePeriod() {
	p := Period{
		Index: a.done,
		End:   a.next,
		Out:   periodCounts(&a.tally[trace.DirOut]),
		In:    periodCounts(&a.tally[trace.DirIn]),
	}
	a.tally = [4][8]uint64{}
	rep := a.det.Period(p)
	if a.sink != nil {
		a.sink(rep)
	}
	if a.tap != nil {
		a.tap.ClosePeriod(p.Index, p.End)
	}
	a.next += a.t0
	a.done++
}

// ClosePeriod forces the open period shut at its boundary regardless
// of record arrival. The daemon's replay closes every period through
// it, never inside FeedBatch, so it can time each close: it shuts the
// open period once the next record lies at or past NextBoundary (a
// paced file replay only after the period's wall-clock deadline), and
// at end of stream the periods left to close.
func (a *Aggregator) ClosePeriod() {
	a.closePeriod()
}

// NextBoundary returns the end time of the currently open period.
func (a *Aggregator) NextBoundary() time.Duration { return a.next }

// Finish fires the trailing empty periods out to span and validates
// that no record fell beyond it. Pass the span learned at EOF; 0 means
// the aggregator's own (construction-time) span, and having neither is
// an error.
func (a *Aggregator) Finish(span time.Duration) error {
	if span == 0 {
		span = a.span
	}
	if span <= 0 {
		return errors.New("ingest: source has no span")
	}
	if a.span > 0 && span != a.span {
		return fmt.Errorf("ingest: span changed from %v to %v", a.span, span)
	}
	if a.sawRecord && a.lastTs >= span {
		return fmt.Errorf("ingest: record at %v outside span %v", a.lastTs, span)
	}
	periods := int(span / a.t0)
	if periods == 0 {
		return fmt.Errorf("ingest: span %v shorter than one period %v", span, a.t0)
	}
	for a.done < periods {
		a.closePeriod()
	}
	return nil
}

// Records returns how many records were fed (counted plus skipped).
func (a *Aggregator) Records() int { return a.records }

// Skipped returns how many records fell inside already-resumed periods.
func (a *Aggregator) Skipped() int { return a.skipped }

// Done returns how many periods have closed, including resumed ones.
func (a *Aggregator) Done() int { return a.done }

// Pipeline wires a Source to a Detector through an Aggregator and
// runs it to completion. This is the one construction every binary
// shares; only Source and Detector vary.
type Pipeline struct {
	Source   Source
	Detector Detector
	// T0 is the observation period.
	T0 time.Duration
	// Span overrides the source's span. Leave 0 to take it from the
	// source (required when the source is not a SpanSource).
	Span time.Duration
	// Sink, if set, receives each period report as it closes.
	Sink Sink
	// Tap, if set, receives every counted record and period close —
	// the keyed source-attribution demux rides here.
	Tap RecordTap
	// Arena, if set, supplies the run's chunk buffer and so its chunk
	// size; callers running many pipelines share one arena so chunks
	// recycle across runs. Nil allocates one DefaultChunk chunk for the
	// run.
	Arena *Arena
}

// Run drains the source through the aggregator and finishes the tail.
// The source is not closed; the caller owns it.
//
// Records move in chunks: the source's NextBatch fills an arena chunk,
// and the aggregator folds each chunk with one boundary decision per
// run of records.
func (p *Pipeline) Run() error {
	span := p.Span
	if span == 0 {
		if ss, ok := p.Source.(SpanSource); ok {
			span = ss.Span()
		}
	}
	agg, err := NewAggregator(p.T0, span, p.Detector, p.Sink)
	if err != nil {
		return err
	}
	if p.Tap != nil {
		agg.SetTap(p.Tap)
	}
	arena := p.Arena
	if arena == nil {
		arena = NewArena(DefaultChunk)
	}
	if err := drain(p.Source, agg, arena); err != nil {
		return err
	}
	finalSpan := time.Duration(0)
	if span == 0 {
		if ss, ok := p.Source.(SpanSource); ok {
			finalSpan = ss.Span()
		}
	}
	return agg.Finish(finalSpan)
}
