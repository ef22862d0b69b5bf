// Package daemon is the hardened operational core shared by the
// long-lived SYN-dog binaries (cmd/syndogd, cmd/syndogfleet): capture
// replay through an ingest pipeline — instant or paced against
// absolute wall-clock deadlines — live HTTP state, and durable
// snapshot / checkpoint handling.
//
// The package exists to make the resume/replay path provably
// equivalent to a single uninterrupted run, which is what the CUSUM
// change-point literature assumes of a continuously-running statistic:
//
//   - Replay is resume-aware: a detector restored from a snapshot with
//     N completed periods skips the first N periods of the capture
//     instead of re-appending them.
//   - Pacing derives every period boundary from one start instant, so
//     scheduler latency inside a period does not accumulate into the
//     next (no chained time.After drift).
//   - Replay failures are daemon state, surfaced via /status and
//     /healthz (503) and returned from Run so the process exits
//     non-zero — never discarded.
//   - Snapshots are durable (fsync before rename, directory fsync) and
//     can be written periodically on a checkpoint interval, so a crash
//     loses at most one interval of evidence.
//
// Replay runs on the ingest pipeline: any ingest.Source feeds any
// core.Detector (the paper's CUSUM agent or a baseline) through an
// ingest.Aggregator. Every capture file streams — ingest.Scan
// validates and sizes it in one pass, then ingest.Open replays it —
// so a daemon over a multi-gigabyte capture holds one chunk of records
// and four counters in memory, never the capture, whatever its format.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

// Options configures a Daemon beyond its detector and source.
type Options struct {
	// Name prefixes log lines (default "daemon"; cmd/syndogd passes
	// its own name so operator-facing output is unchanged).
	Name string
	// Log receives checkpoint failure notices (default os.Stderr;
	// tests redirect it). The banner is the supervisor's.
	Log io.Writer
	// StatePath, when non-empty, is where Checkpoint and SaveState
	// persist the agent snapshot.
	StatePath string
	// CheckpointInterval enables periodic snapshots during Run when
	// positive and StatePath is set. Zero disables checkpointing; the
	// final snapshot on shutdown is written regardless.
	CheckpointInterval time.Duration
	// Tracker, when non-nil, is the per-source attribution engine:
	// replay taps every counted record into it, /sources and the
	// keyed /metrics gauges expose it, and SaveState persists its
	// keyed snapshot alongside the agent's. Its period clock must
	// match the detector's resume offset (NewStream validates).
	Tracker *sourcetrack.Tracker
	// Monitor names this daemon in its exported summaries — the
	// identity a fusion coordinator sees (default Name). The
	// supervisor passes each agent's spec name.
	Monitor string
	// Summary shapes the exported form of the summary stream: the
	// censoring threshold λ and the top-K digest budget. It applies to
	// /summaries and the uplink; the locally-stored summaries (and so
	// /reports, /status, /metrics) always keep full fidelity.
	Summary summary.Config
	// Uplink, when non-nil, receives every closed period's summary —
	// the push half of distributed fusion. The uplink is shared
	// process-wide and never owned by the daemon; callers close it.
	Uplink *summary.Uplink
}

func (o *Options) applyDefaults() {
	if o.Name == "" {
		o.Name = "daemon"
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	if o.Monitor == "" {
		o.Monitor = o.Name
	}
}

// Daemon owns an ingest pipeline replaying one capture behind a mutex:
// the replay goroutine writes, HTTP handlers and checkpoints read.
type Daemon struct {
	opts Options

	mu    sync.Mutex
	det   core.Detector
	agent *core.Agent // non-nil only for the CUSUM detector; snapshots need it
	src   ingest.Source

	srcName    string
	srcRecords int // record count when known up front, -1 for pure streams
	t0         time.Duration
	span       time.Duration

	resumeOffset int  // periods already in the detector when the daemon started
	totalPeriods int  // complete periods the capture spans; 0 for live sources
	live         bool // live source: unbounded span, data-driven period closes
	records      int  // records replayed so far (this run)
	skipped      int  // records skipped: their period predates the resume point
	done         bool
	replayErr    error

	// midPeriod is set while the bounded replay has fed part of a period
	// it has not closed yet: the replay releases mu between chunks, and
	// the tracker's open-period counts must not reach a snapshot. State
	// waits on boundary (whose lock is mu) until it clears.
	midPeriod bool
	boundary  sync.Cond

	// summaries is the per-period summary store — the single code path
	// every per-period consumer (/reports, /status, /metrics,
	// /summaries, the uplink) reads. Resumed history is backfilled at
	// construction (digest-free: per-period tracker views no longer
	// exist); live periods append through the summarizer tap.
	summarizer *summary.Summarizer
	summaries  []summary.PeriodSummary

	periodLatency     latencyHist // agg.ClosePeriod wall time per period
	checkpointLatency latencyHist // SaveState wall time per checkpoint attempt

	checkpoints        int
	lastCheckpoint     time.Time
	checkpointFailures int
	lastCheckpointErr  error
}

// NewStream builds a daemon that replays src through det. info must
// carry the capture span (ingest.Scan learns it, and validates the
// file, in one pass before the replay opens it); info.Records may be
// -1 when the count is unknown up front. t0 is the observation period
// — detectors other than the CUSUM agent carry no period of their own.
// If the detector was resumed from a snapshot, its existing report
// history becomes the resume offset: replay will skip that many
// leading periods. NewStream fails on a span shorter than one period,
// or when the detector's history claims more periods than the span
// holds (the snapshot cannot have come from this capture).
//
// The aggregator still checks order as records stream: a source that
// turns out unordered or out of span fails the replay (surfacing via
// /healthz and Run's error) rather than mis-bucketing periods.
func NewStream(det core.Detector, src ingest.Source, info ingest.Info, t0 time.Duration, opts Options) (*Daemon, error) {
	opts.applyDefaults()
	if t0 <= 0 {
		return nil, fmt.Errorf("daemon: non-positive observation period %v", t0)
	}
	if info.Span <= 0 {
		return nil, fmt.Errorf("daemon: trace %q has no span", info.Name)
	}
	periods := int(info.Span / t0)
	if periods == 0 {
		return nil, fmt.Errorf("daemon: trace %q span %v shorter than one period %v", info.Name, info.Span, t0)
	}
	resume := det.Periods()
	if resume > periods {
		return nil, fmt.Errorf("daemon: snapshot holds %d periods but trace %q spans only %d — wrong trace or state file",
			resume, info.Name, periods)
	}
	if opts.Tracker != nil && opts.Tracker.Periods() != resume {
		return nil, fmt.Errorf("daemon: keyed state holds %d periods but detector holds %d — mismatched snapshot halves",
			opts.Tracker.Periods(), resume)
	}
	d := &Daemon{
		opts:         opts,
		det:          det,
		src:          src,
		srcName:      info.Name,
		srcRecords:   info.Records,
		t0:           t0,
		span:         info.Span,
		resumeOffset: resume,
		totalPeriods: periods,
	}
	d.init()
	return d, nil
}

// NewLive builds a daemon over a live source — a capture.Source on an
// interface or pcap pipe, or any other ingest.Source whose span is
// unknowable up front. There is no fixed period count and no pacing:
// records arrive in real time and the aggregator closes a period when
// the first record of the next one crosses the boundary (a completely
// quiet period closes only when traffic resumes). Replay ends when the
// source does — never for an interface, at stream end for a pipe —
// with the trailing partial period closed so a finite live feed
// accounts for every record.
//
// Resume still works: a detector restored with N periods makes the
// aggregator skip records timestamped inside them, which is exactly
// right for replaying a capture file through the live path and
// meaningless-but-harmless for a freshly-rebased interface feed (whose
// operator should start with fresh state).
func NewLive(det core.Detector, src ingest.Source, name string, t0 time.Duration, opts Options) (*Daemon, error) {
	opts.applyDefaults()
	if t0 <= 0 {
		return nil, fmt.Errorf("daemon: non-positive observation period %v", t0)
	}
	resume := det.Periods()
	if opts.Tracker != nil && opts.Tracker.Periods() != resume {
		return nil, fmt.Errorf("daemon: keyed state holds %d periods but detector holds %d — mismatched snapshot halves",
			opts.Tracker.Periods(), resume)
	}
	d := &Daemon{
		opts:         opts,
		det:          det,
		src:          src,
		srcName:      name,
		srcRecords:   -1,
		t0:           t0,
		live:         true,
		resumeOffset: resume,
	}
	d.init()
	return d, nil
}

// init finishes construction: the snapshot handle on the CUSUM agent,
// the summarizer with its backfilled history, and the period-boundary
// condition.
func (d *Daemon) init() {
	d.agent, _ = d.det.(*core.Agent)
	d.summarizer = &summary.Summarizer{
		Monitor: d.opts.Monitor,
		Cfg:     d.opts.Summary,
		Tracker: d.opts.Tracker,
	}
	d.summaries = d.summarizer.Backfill(d.det.Reports())
	d.boundary.L = &d.mu
}

// emitSummary appends one closed period's summary to the store and
// pushes it up the uplink. It runs inside the aggregator's period
// close, which the replay loop always executes under d.mu — no
// re-locking here (and Uplink.Send never blocks).
func (d *Daemon) emitSummary(ps summary.PeriodSummary) {
	d.summaries = append(d.summaries, ps)
	if d.opts.Uplink != nil {
		d.opts.Uplink.Send(ps)
	}
}

// Close releases the daemon's source. The supervisor (and any caller
// of BuildAgent) owns daemons whose sources it never opened itself —
// pcap-backed ones hold an open file — so teardown goes through here.
// Close does not stop a running replay; cancel its context first.
func (d *Daemon) Close() error {
	return d.src.Close()
}

// ResumeOffset returns how many periods of the capture are skipped
// because the detector already reported them before this daemon
// started.
func (d *Daemon) ResumeOffset() int { return d.resumeOffset }

// TotalPeriods returns how many complete periods the capture spans.
func (d *Daemon) TotalPeriods() int { return d.totalPeriods }

// Replay feeds the source through the detector, skipping periods
// already covered by the detector's history. speed <= 0 replays
// instantly; a positive speed replays that many trace seconds per wall
// second, pacing each period boundary against an absolute deadline
// derived from the replay start instant. The returned error is also
// recorded in daemon state (visible via /status and /healthz) unless
// it is the context's cancellation.
func (d *Daemon) Replay(ctx context.Context, speed float64) error {
	err := d.replay(ctx, speed)
	d.mu.Lock()
	defer d.mu.Unlock()
	// Whatever way the replay ended, no period is being fed any more.
	d.midPeriod = false
	d.boundary.Broadcast()
	switch {
	case err == nil:
		d.done = true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Interrupted, not failed: the daemon is simply not done.
	default:
		d.replayErr = err
	}
	return err
}

func (d *Daemon) replay(ctx context.Context, speed float64) error {
	if d.live {
		return d.replayLive(ctx)
	}
	// The summarizer tap is the single emission path for closed
	// periods: it folds the tracker (when present), builds the period's
	// summary from the detector's report, and hands it to emitSummary —
	// which appends to the store and feeds the uplink. The aggregator's
	// sink captures the report for the period being closed.
	var inner summary.RecordTap
	if d.opts.Tracker != nil {
		inner = d.opts.Tracker
	}
	tap := summary.NewTap(d.summarizer, inner, d.emitSummary)
	agg, err := ingest.NewAggregator(d.t0, d.span, d.det, tap.Sink)
	if err != nil {
		return err
	}
	agg.SetTap(tap)

	// Chunked lookahead over the source: records land in an arena chunk
	// and buf[pos:n] is the unconsumed window. The paced loop cuts each
	// chunk at the period boundary, so a period closes at its wall-clock
	// deadline without consuming the first record of the following one —
	// the batch generalization of the old one-record peek.
	arena := ingest.NewArena(0)
	buf := arena.Get()
	defer arena.Put(buf)
	var (
		pos, n  int
		srcDone bool
	)
	// fill refills the window when it is empty; reads run without d.mu
	// held, so a slow source never stalls the HTTP plane.
	fill := func() error {
		if srcDone || pos < n {
			return nil
		}
		pos, n = 0, 0
		for !srcDone && n == 0 {
			m, err := d.src.NextBatch(buf)
			n = m
			if err == io.EOF {
				srcDone = true
			} else if err != nil {
				return err
			}
		}
		return nil
	}

	// Records inside already-reported periods were counted before the
	// snapshot was taken; replaying them would double-count, so the
	// aggregator drops them. Drain them before pacing starts so the
	// skip counter is complete when the first period opens.
	resumeStart := d.t0 * time.Duration(d.resumeOffset)
	for {
		// The drain is unpaced and can cover a multi-gigabyte prefix; it
		// must stay interruptible (one check per chunk) or the daemon
		// ignores SIGTERM until every skipped record has been read.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fill(); err != nil {
			return err
		}
		if pos >= n {
			break // source exhausted inside the resume prefix
		}
		cut := pos
		for cut < n && buf[cut].Ts < resumeStart {
			cut++
		}
		if cut > pos {
			d.mu.Lock()
			err := agg.FeedBatch(buf[pos:cut])
			d.skipped = agg.Skipped()
			d.mu.Unlock()
			if err != nil {
				return err
			}
			pos = cut
		}
		if pos < n {
			break // first live record reached; pacing takes over
		}
	}

	var (
		start     time.Time
		perPeriod time.Duration
		timer     *time.Timer
	)
	if speed > 0 {
		start = time.Now()
		perPeriod = time.Duration(float64(d.t0) / speed)
		timer = time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	}

	for p := d.resumeOffset; p < d.totalPeriods; p++ {
		if speed > 0 {
			// Drift-free pacing: period p ends at an absolute deadline
			// derived from the start instant. A late wakeup shortens
			// the next wait instead of pushing every later period back
			// the way chained time.After calls do.
			deadline := start.Add(time.Duration(p-d.resumeOffset+1) * perPeriod)
			timer.Reset(time.Until(deadline))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		for {
			if err := fill(); err != nil {
				return err
			}
			if pos >= n {
				break // source exhausted; remaining periods close empty
			}
			d.mu.Lock()
			boundary := agg.NextBoundary()
			cut := pos
			for cut < n && buf[cut].Ts < boundary {
				cut++
			}
			if cut > pos {
				d.midPeriod = true
				if err := agg.FeedBatch(buf[pos:cut]); err != nil {
					d.mu.Unlock()
					return err
				}
				pos = cut
				d.records = agg.Records() - agg.Skipped()
			}
			if pos < n {
				d.mu.Unlock()
				break // head of the next period stays in the window
			}
			d.mu.Unlock()
		}
		d.mu.Lock()
		closeStart := time.Now()
		agg.ClosePeriod()
		d.periodLatency.observe(time.Since(closeStart).Seconds())
		d.midPeriod = false
		d.boundary.Broadcast()
		d.mu.Unlock()
	}
	return nil
}

// replayLive is the live-mode replay loop: no span, no pacing, no
// period count. The aggregator runs unbounded (span 0) and closes
// periods data-driven as record timestamps cross boundaries; the speed
// knob is ignored because a live source already arrives in real time.
func (d *Daemon) replayLive(ctx context.Context) error {
	var inner summary.RecordTap
	if d.opts.Tracker != nil {
		inner = d.opts.Tracker
	}
	tap := summary.NewTap(d.summarizer, inner, d.emitSummary)
	agg, err := ingest.NewAggregator(d.t0, 0, d.det, tap.Sink)
	if err != nil {
		return err
	}
	agg.SetTap(tap)

	// A live source blocks on a quiet wire; cancellation must close it
	// to unblock the read, not just set a flag the loop never reaches.
	stopClose := context.AfterFunc(ctx, func() { _ = d.src.Close() })
	defer stopClose()

	arena := ingest.NewArena(0)
	buf := arena.Get()
	defer arena.Put(buf)
	for {
		n, err := d.src.NextBatch(buf)
		if n > 0 {
			d.mu.Lock()
			ferr := agg.FeedBatch(buf[:n])
			d.records = agg.Records() - agg.Skipped()
			d.skipped = agg.Skipped()
			d.mu.Unlock()
			if ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The read failed because cancellation closed the
				// source out from under it.
				return cerr
			}
			return err
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	// A finite live feed (pcap pipe at EOF): close out the complete
	// periods the stream spanned, exactly as the bounded path would
	// have for the same capture — the trailing partial period stays
	// unreported on both paths, which is what keeps live pcap replay
	// bit-identical to file replay. With no records counted beyond the
	// resume point there is nothing to close.
	d.mu.Lock()
	defer d.mu.Unlock()
	if agg.Records() <= agg.Skipped() {
		return nil
	}
	span := time.Duration(0)
	if ss, ok := d.src.(ingest.SpanSource); ok {
		span = ss.Span()
	}
	if span < d.t0 {
		// Source without a span (or shorter than one period): no
		// complete period to close.
		return nil
	}
	return agg.Finish(span)
}

// failReplay records err as the replay failure. It exists so tests can
// exercise the error-surfacing machinery (healthz 503, status field)
// without constructing a failing source.
func (d *Daemon) failReplay(err error) {
	d.mu.Lock()
	d.replayErr = err
	d.mu.Unlock()
}

// Run executes the replay and, when configured, the checkpoint loop.
// The daemon has no listener of its own: the supervisor serves every
// daemon's handler behind one shared listener and drives each with
// Run.
func (d *Daemon) Run(ctx context.Context, speed float64) error {
	if d.opts.StatePath != "" && d.opts.CheckpointInterval > 0 {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		go d.checkpointLoop(cctx)
	}
	return d.Replay(ctx, speed)
}

// checkpointLoop persists the agent every CheckpointInterval until ctx
// is cancelled. Checkpoint failures are logged and counted (the
// syndog_checkpoint_failures_total metric and /status's
// lastCheckpointError), not fatal: the daemon keeps detecting even if
// its disk is briefly unhappy, and the final shutdown snapshot still
// runs.
func (d *Daemon) checkpointLoop(ctx context.Context) {
	t := time.NewTicker(d.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := d.Checkpoint(); err != nil {
				fmt.Fprintf(d.opts.Log, "%s: checkpoint: %v\n", d.opts.Name, err)
			}
		}
	}
}
