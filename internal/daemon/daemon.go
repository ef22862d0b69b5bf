// Package daemon is the hardened operational core shared by the
// long-lived SYN-dog binaries (cmd/syndogd, cmd/syndogfleet): one
// replay loop that feeds any capture — a scanned file, instant or paced
// against absolute wall-clock deadlines, or a live source — through an
// ingest pipeline, live HTTP state, and durable snapshot / checkpoint
// handling.
//
// The package exists to make the resume/replay path provably
// equivalent to a single uninterrupted run, which is what the CUSUM
// change-point literature assumes of a continuously-running statistic:
//
//   - Replay is resume-aware: a detector restored from a snapshot with
//     N completed periods skips the records of the first N periods
//     instead of re-counting them, on file and live inputs alike.
//   - Pacing derives every period boundary from one start instant, so
//     scheduler latency inside a period does not accumulate into the
//     next (no chained time.After drift).
//   - Every period closes through one timed close, whatever the input,
//     so the period-latency histogram counts every period a run closed.
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
	// match the detector's resume offset (New validates).
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
	span       time.Duration // the scanned file span; 0 for a live source

	resumeOffset int // periods already in the detector when the daemon started
	totalPeriods int // complete periods the file spans; 0 for a live source
	records      int // records replayed so far (this run)
	skipped      int // records skipped: their period predates the resume point
	done         bool
	replayErr    error

	// midPeriod is set while the replay has fed part of a file period it
	// has not closed yet: the replay releases mu between chunks, and
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

// New builds a daemon that replays src through det. t0 is the
// observation period — detectors other than the CUSUM agent carry no
// period of their own. info.Records may be -1 when the count is
// unknown up front. info.Span says what kind of input src is:
//
//   - Span > 0: a file, whose span ingest.Scan learned (and whose order
//     it validated) in one pass before the replay opened it. The replay
//     covers the span's complete periods, paced when Replay is given a
//     speed, and stops at the last one. New refuses a span shorter than
//     one period.
//   - Span == 0: a live source — a capture.Source on an interface or
//     pcap pipe, or any other ingest.Source whose span is unknowable up
//     front. It is never paced: records arrive in real time and a
//     period closes when the first record of a later one arrives (a
//     completely quiet period closes only when traffic resumes). At
//     EOF the replay closes the complete periods of the span the
//     source learned (ingest.SpanSource), so a finite feed reports
//     exactly what the file replay of the same capture reports.
//     Cancelling the replay closes src to unblock a read on a quiet
//     wire, so src.Close must end a pending NextBatch: capture.Source's
//     does, but a bare ingest.ChanSource's Close only frees a parked
//     producer — its feeder must CloseSend for a replay to return.
//
// If the detector was resumed from a snapshot, its existing report
// history becomes the resume offset: replay skips the records of that
// many leading periods. New fails when that history claims more
// periods than a file's span holds (the snapshot cannot have come from
// this capture), and when a tracker's period clock disagrees with it.
//
// The aggregator still checks order as records stream: a source that
// turns out unordered or out of span fails the replay (surfacing via
// /healthz and Run's error) rather than mis-bucketing periods.
func New(det core.Detector, src ingest.Source, info ingest.Info, t0 time.Duration, opts Options) (*Daemon, error) {
	opts.applyDefaults()
	if t0 <= 0 {
		return nil, fmt.Errorf("daemon: non-positive observation period %v", t0)
	}
	resume := det.Periods()
	periods := 0
	if info.Span != 0 {
		if periods = int(info.Span / t0); periods <= 0 {
			return nil, fmt.Errorf("daemon: trace %q span %v shorter than one period %v", info.Name, info.Span, t0)
		}
		if resume > periods {
			return nil, fmt.Errorf("daemon: snapshot holds %d periods but trace %q spans only %d — wrong trace or state file",
				resume, info.Name, periods)
		}
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
		summarizer: &summary.Summarizer{
			Monitor: opts.Monitor,
			Cfg:     opts.Summary,
			Tracker: opts.Tracker,
		},
	}
	d.agent, _ = det.(*core.Agent)
	d.summaries = d.summarizer.Backfill(det.Reports())
	d.boundary.L = &d.mu
	return d, nil
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

// TotalPeriods returns how many complete periods the capture spans (0
// for a live source).
func (d *Daemon) TotalPeriods() int { return d.totalPeriods }

// Replay feeds the source through the detector, skipping periods
// already covered by the detector's history. speed <= 0 replays
// instantly; a positive speed replays a file that many trace seconds
// per wall second, pacing each period boundary against an absolute
// deadline derived from the replay start instant (a live source is
// never paced). The returned error is also recorded in daemon state
// (visible via /status and /healthz) unless it is the context's
// cancellation.
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

// replay is the one chunk loop behind every input. Records land in an
// arena chunk and buf[pos:n] is the unconsumed window; reads run
// without d.mu held, so a slow or quiet source never stalls the HTTP
// plane. The loop cuts the window at the resume point and at the open
// period's boundary: records before the resume point were counted
// before the snapshot was taken, and the aggregator skips them
// unpaced; a record at or past the boundary closes the open period —
// at its wall-clock deadline when paced, without consuming that
// record — and everything else is fed into the open period.
func (d *Daemon) replay(ctx context.Context, speed float64) error {
	live := d.span == 0
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
	if live {
		// A live source already arrives in real time, and blocks on a
		// quiet wire: cancellation must close it to unblock the read,
		// not just set a flag the loop never reaches.
		speed = 0
		stopClose := context.AfterFunc(ctx, func() { _ = d.src.Close() })
		defer stopClose()
	}

	// gate runs once per period, before the period's first record is
	// fed or the period is closed. Paced, it waits for the period's
	// deadline, derived from the instant the first period was gated: a
	// late wakeup shortens the next wait instead of pushing every later
	// period back the way chained time.After calls do. Past the resume
	// prefix a file replay heeds cancellation only here, so a file
	// period once fed is always completed.
	var (
		start time.Time
		gated = d.resumeOffset - 1
	)
	gate := func() error {
		p := agg.Done()
		if p == gated {
			return nil
		}
		gated = p
		if speed <= 0 {
			return ctx.Err()
		}
		if start.IsZero() {
			start = time.Now()
		}
		perPeriod := time.Duration(float64(d.t0) / speed)
		timer := time.NewTimer(time.Until(start.Add(time.Duration(p-d.resumeOffset+1) * perPeriod)))
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return nil
		}
	}
	// closePeriod is the one period close, timed for
	// syndog_period_processing_seconds.
	closePeriod := func() {
		d.mu.Lock()
		closeStart := time.Now()
		agg.ClosePeriod()
		d.periodLatency.observe(time.Since(closeStart).Seconds())
		d.midPeriod = false
		d.boundary.Broadcast()
		d.mu.Unlock()
	}

	arena := ingest.NewArena(0)
	buf := arena.Get()
	defer arena.Put(buf)
	var (
		pos, n   int
		eof      bool
		draining = true // no record past the resume point seen yet
	)
	// feed counts the window up to cut. A partly fed file period makes
	// State wait for its close; a live period may stay open for as long
	// as the wire is quiet, so it never holds State back.
	feed := func(cut int, mid bool) error {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.midPeriod = mid
		err := agg.FeedBatch(buf[pos:cut])
		pos = cut
		d.records = agg.Records() - agg.Skipped()
		d.skipped = agg.Skipped()
		return err
	}

	resumeStart := d.t0 * time.Duration(d.resumeOffset)
	for !eof || pos < n {
		if pos == n {
			// The resume drain is unpaced and can cover a multi-gigabyte
			// prefix; it must stay interruptible, one check per chunk,
			// or the daemon ignores SIGTERM until every skipped record
			// has been read.
			if draining {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			m, err := d.src.NextBatch(buf)
			pos, n = 0, m
			if err == io.EOF {
				eof = true
			} else if err != nil {
				if cerr := ctx.Err(); live && cerr != nil {
					return cerr // cancellation closed the source under the read
				}
				return err
			}
			continue
		}
		head := buf[pos].Ts
		if head < resumeStart {
			cut := pos
			for cut < n && buf[cut].Ts < resumeStart {
				cut++
			}
			if err := feed(cut, false); err != nil {
				return err
			}
			continue
		}
		draining = false
		if !live && agg.Done() == d.totalPeriods {
			return nil // a file stops at its last complete period
		}
		if err := gate(); err != nil {
			return err
		}
		boundary := agg.NextBoundary()
		if head >= boundary {
			closePeriod()
			continue
		}
		cut := pos
		for cut < n && buf[cut].Ts < boundary {
			cut++
		}
		if err := feed(cut, !live); err != nil {
			return err
		}
	}

	end := d.span
	if live {
		// Cancellation ends a live source this way too, by closing it.
		if err := ctx.Err(); err != nil {
			return err
		}
		// A finite live feed (a pcap pipe at EOF) closes the complete
		// periods of the span it learned, exactly as the file replay of
		// the same capture would: the trailing partial period stays
		// unreported on both, which keeps live pcap replay bit-identical
		// to file replay. A feed with no record counted past the resume
		// point, or without a complete period, has none to close.
		if ss, ok := d.src.(ingest.SpanSource); ok && agg.Records() > agg.Skipped() {
			end = ss.Span()
		}
		if end < d.t0 {
			return nil
		}
	}
	// The source is exhausted: the open period closes, and a file's
	// periods past its last record close empty, each at its deadline.
	for agg.Done() < int(end/d.t0) {
		if err := gate(); err != nil {
			return err
		}
		closePeriod()
	}
	return agg.Finish(end)
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
