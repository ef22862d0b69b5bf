package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

// Status is the /status payload. Field names are part of the daemon's
// HTTP contract; additions are fine, renames are not.
type Status struct {
	Trace            string `json:"trace"`
	Periods          int    `json:"periods"`
	TotalPeriods     int    `json:"totalPeriods"`
	ResumeOffset     int    `json:"resumeOffset"`
	RecordsProcessed int    `json:"recordsProcessed"`
	RecordsSkipped   int    `json:"recordsSkipped"`
	// RecordsDropped counts records the live source shed under
	// backpressure (ingest.DropCounter); 0 for file replays.
	RecordsDropped uint64 `json:"recordsDropped"`
	// Capture is the live capture accounting — frame, parse, skip and
	// drop counters from the capture.Source. Absent for file replays.
	Capture        *CaptureStatus `json:"capture,omitempty"`
	KBar           float64        `json:"kBar"`
	Statistic      float64        `json:"yn"`
	Alarmed        bool           `json:"alarmed"`
	AlarmPeriod    int            `json:"alarmPeriod,omitempty"`
	AlarmAtNanos   int64          `json:"alarmAtNanos,omitempty"`
	ReplayDone     bool           `json:"replayDone"`
	ReplayError    string         `json:"replayError,omitempty"`
	LastOutSYN     uint64         `json:"lastOutSYN"`
	LastInSYNACK   uint64         `json:"lastInSYNACK"`
	Tracking       bool           `json:"tracking"`
	SourcesTracked int            `json:"sourcesTracked"`
	SourcesAlarmed int            `json:"sourcesAlarmed"`
	SourcesEvicted uint64         `json:"sourcesEvicted"`
	Checkpoints    int            `json:"checkpoints"`
	CheckpointAge  time.Duration  `json:"checkpointAgeNanos,omitempty"`
	// CheckpointFailures counts failed checkpoint writes;
	// LastCheckpointError is the most recent failure, cleared by the
	// next success.
	CheckpointFailures  int           `json:"checkpointFailures"`
	LastCheckpointError string        `json:"lastCheckpointError,omitempty"`
	T0                  time.Duration `json:"t0Nanos"`

	// PeriodLatency and CheckpointLatency are histogram snapshots
	// backing the /metrics latency families. They ride on Status so the
	// metrics renderers stay pure functions of one consistent state
	// capture, but they are deliberately not part of the /status JSON
	// contract.
	PeriodLatency     LatencySnapshot `json:"-"`
	CheckpointLatency LatencySnapshot `json:"-"`
}

// CaptureStatus is the live capture accounting inside Status: how many
// frames the handle saw, how many became records, and where the rest
// went — every loss named, none silent.
type CaptureStatus struct {
	Frames        uint64 `json:"frames"`
	Parsed        uint64 `json:"parsed"`
	Skipped       uint64 `json:"skipped"`
	RingDropped   uint64 `json:"ringDropped"`
	KernelDropped uint64 `json:"kernelDropped"`
}

// captureStats is implemented by sources with capture accounting
// (capture.Source).
type captureStats interface {
	Stats() capture.Stats
}

// Status returns a consistent snapshot of the daemon's state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Status{
		Trace:              d.srcName,
		Periods:            len(d.summaries),
		TotalPeriods:       d.totalPeriods,
		ResumeOffset:       d.resumeOffset,
		RecordsProcessed:   d.records,
		RecordsSkipped:     d.skipped,
		KBar:               d.det.KBar(),
		Alarmed:            d.det.Alarmed(),
		ReplayDone:         d.done,
		Checkpoints:        d.checkpoints,
		CheckpointFailures: d.checkpointFailures,
		T0:                 d.t0,
		PeriodLatency:      d.periodLatency.snapshot(),
		CheckpointLatency:  d.checkpointLatency.snapshot(),
	}
	if dc, ok := d.src.(ingest.DropCounter); ok {
		s.RecordsDropped = dc.Dropped()
	}
	if cs, ok := d.src.(captureStats); ok {
		st := cs.Stats()
		s.Capture = &CaptureStatus{
			Frames:        st.Frames,
			Parsed:        st.Parsed,
			Skipped:       st.Skipped,
			RingDropped:   st.RingDropped,
			KernelDropped: st.KernelDropped,
		}
	}
	if d.lastCheckpointErr != nil {
		s.LastCheckpointError = d.lastCheckpointErr.Error()
	}
	if d.replayErr != nil {
		s.ReplayError = d.replayErr.Error()
	}
	if n := len(d.summaries); n > 0 {
		last := d.summaries[n-1]
		s.Statistic = last.Y
		s.LastOutSYN = last.OutSYN
		s.LastInSYNACK = last.InSYNACK
	}
	if al := d.det.FirstAlarm(); al != nil {
		s.AlarmPeriod = al.Period
		s.AlarmAtNanos = int64(al.At)
	}
	if !d.lastCheckpoint.IsZero() {
		s.CheckpointAge = time.Since(d.lastCheckpoint)
	}
	if tr := d.opts.Tracker; tr != nil {
		// The tracker has its own (leaf) lock; reading it under d.mu
		// is deadlock-free because nothing acquires that lock first.
		ts := tr.Stats()
		s.Tracking = true
		s.SourcesTracked = ts.Tracked
		s.SourcesAlarmed = ts.Alarmed
		s.SourcesEvicted = ts.Evicted
	}
	return s
}

// SourcesPayload is the /sources response: the tracker's truncation
// ledger plus the ranked most-suspect keys. Enabled is false (and the
// rest zero) when the daemon runs without -track-sources.
type SourcesPayload struct {
	Enabled    bool `json:"enabled"`
	KeyBits    int  `json:"keyBits,omitempty"`
	MaxSources int  `json:"maxSources,omitempty"`
	Periods    int  `json:"periods,omitempty"`
	// Total is the full ranked population size; Offset is where the
	// returned page starts within it. Together they make truncation
	// visible and let clients page through every key.
	Total   int                        `json:"total"`
	Offset  int                        `json:"offset"`
	Stats   sourcetrack.TrackerStats   `json:"stats"`
	Sources []sourcetrack.SourceReport `json:"sources"`
}

// Sources returns the /sources payload: the page of n ranked keys
// starting at offset. n == 0 returns no rows (headers and stats only);
// n < 0 returns everything from offset on. A negative offset is
// clamped to 0, one past the population to an empty page. The period
// clock, stats and rows come from one consistent tracker view — a
// concurrent period close cannot make them disagree.
func (d *Daemon) Sources(n, offset int) SourcesPayload {
	tr := d.opts.Tracker
	if tr == nil {
		return SourcesPayload{}
	}
	cfg := tr.Config()
	v := tr.View(0)
	if offset < 0 {
		offset = 0
	}
	p := SourcesPayload{
		Enabled:    true,
		KeyBits:    cfg.KeyBits,
		MaxSources: cfg.MaxSources,
		Periods:    v.Periods,
		Total:      len(v.Sources),
		Offset:     offset,
		Stats:      v.Stats,
	}
	if offset > len(v.Sources) {
		offset = len(v.Sources)
	}
	page := v.Sources[offset:]
	if n == 0 {
		page = page[:0]
	} else if n > 0 && len(page) > n {
		page = page[:n]
	}
	p.Sources = page
	return p
}

// Reports returns the per-period reports, reconstructed from the
// summary store. Summaries censor only on export, so the
// reconstruction is exact: /reports is byte-identical to the
// pre-summary-layer extraction straight off the detector.
func (d *Daemon) Reports() []core.Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]core.Report, len(d.summaries))
	for i, ps := range d.summaries {
		out[i] = ps.Report()
	}
	return out
}

// Summaries returns the exported (wire-form) summaries for periods at
// or after from: the same objects the uplink pushes, censored and
// digest-trimmed per Options.Summary. A fusion coordinator polling
// instead of being pushed to reads this endpoint.
func (d *Daemon) Summaries(from int) []summary.PeriodSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(d.summaries) {
		from = len(d.summaries)
	}
	out := make([]summary.PeriodSummary, 0, len(d.summaries)-from)
	for _, ps := range d.summaries[from:] {
		out = append(out, ps.Censor(d.opts.Summary))
	}
	return out
}

// Handler builds the daemon's HTTP mux:
//
//	GET /healthz  -> 200 "ok", or 503 with the replay error
//	GET /status   -> JSON Status
//	GET /reports  -> JSON array of per-period reports
//	GET /summaries -> JSON array of exported (censored) summaries;
//	                 ?from= first period index, default 0
//	GET /sources  -> JSON SourcesPayload (ranked keys; ?n= page size,
//	                 default 20, 0 = headers only; ?offset= page start;
//	                 negatives clamp to 0)
//	GET /metrics  -> Prometheus-style text exposition
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s := d.Status(); s.ReplayError != "" {
			http.Error(w, "replay failed: "+s.ReplayError, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Status())
	})
	mux.HandleFunc("GET /reports", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Reports())
	})
	mux.HandleFunc("GET /summaries", func(w http.ResponseWriter, r *http.Request) {
		// ?from= is the first period index wanted (default 0); the
		// response is the censored wire form, exactly what the uplink
		// would have pushed.
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
				return
			}
			from = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Summaries(from))
	})
	mux.HandleFunc("GET /sources", func(w http.ResponseWriter, r *http.Request) {
		// ?n= is the page size (default 20; 0 means "no rows, headers
		// and stats only" — never "everything": an operator limiting
		// output should not be handed the full key population). ?offset=
		// pages through the ranking. Non-integers are a 400; negatives
		// clamp to 0.
		n, offset := 20, 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			n = max(v, 0)
		}
		if q := r.URL.Query().Get("offset"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad offset: "+err.Error(), http.StatusBadRequest)
				return
			}
			offset = max(v, 0)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Sources(n, offset))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, d.Status())
	})
	return mux
}

// metricDef is one exposition line pair: its TYPE header and how to
// render a Status into its sample value. present gates metrics that
// are only meaningful sometimes (checkpoint age before the first
// checkpoint would be a lie, not a zero).
type metricDef struct {
	name, typ string
	value     func(Status) string
	present   func(Status) bool // nil = always
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// capField reads one capture counter off a Status, zero when the
// source has no capture accounting (file replays).
func capField(s Status, f func(CaptureStatus) uint64) uint64 {
	if s.Capture == nil {
		return 0
	}
	return f(*s.Capture)
}

// metricDefs is the exposition, in order. Metric names and the
// rendered format are a public contract (dashboards scrape them); the
// golden test pins the single-agent form byte for byte, and the
// labeled multi-agent form renders the same table with one sample per
// agent.
var metricDefs = []metricDef{
	{"syndog_periods_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.Periods) }, nil},
	{"syndog_kbar", "gauge", func(s Status) string { return fmt.Sprintf("%g", s.KBar) }, nil},
	{"syndog_statistic", "gauge", func(s Status) string { return fmt.Sprintf("%g", s.Statistic) }, nil},
	{"syndog_alarmed", "gauge", func(s Status) string { return fmt.Sprintf("%d", b2i(s.Alarmed)) }, nil},

	// Replay progress and volume.
	{"syndog_replay_progress", "gauge", func(s Status) string {
		progress := 0.0
		if s.TotalPeriods > 0 {
			progress = float64(s.Periods) / float64(s.TotalPeriods)
		}
		return fmt.Sprintf("%g", progress)
	}, nil},
	{"syndog_replay_done", "gauge", func(s Status) string { return fmt.Sprintf("%d", b2i(s.ReplayDone)) }, nil},
	{"syndog_replay_failed", "gauge", func(s Status) string { return fmt.Sprintf("%d", b2i(s.ReplayError != "")) }, nil},
	{"syndog_records_processed_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.RecordsProcessed) }, nil},
	{"syndog_records_skipped_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.RecordsSkipped) }, nil},
	// Backpressure loss on live feeds (ChanSource drop mode); always 0
	// for file replays. Emitted unconditionally so wiring a live source
	// never changes the exposition's line set.
	{"syndog_records_dropped_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.RecordsDropped) }, nil},

	// Live capture accounting (capture.Source): frames seen, records
	// parsed, frames the classifier skipped, records shed at a full
	// ring, frames the kernel dropped before this process saw them.
	// Emitted unconditionally (zeros for file replays) so switching an
	// agent to a live: input never changes the exposition's line set.
	{"syndog_capture_frames_total", "counter", func(s Status) string {
		return fmt.Sprintf("%d", capField(s, func(c CaptureStatus) uint64 { return c.Frames }))
	}, nil},
	{"syndog_capture_records_total", "counter", func(s Status) string {
		return fmt.Sprintf("%d", capField(s, func(c CaptureStatus) uint64 { return c.Parsed }))
	}, nil},
	{"syndog_capture_skipped_total", "counter", func(s Status) string {
		return fmt.Sprintf("%d", capField(s, func(c CaptureStatus) uint64 { return c.Skipped }))
	}, nil},
	{"syndog_capture_ring_drops_total", "counter", func(s Status) string {
		return fmt.Sprintf("%d", capField(s, func(c CaptureStatus) uint64 { return c.RingDropped }))
	}, nil},
	{"syndog_capture_kernel_drops_total", "counter", func(s Status) string {
		return fmt.Sprintf("%d", capField(s, func(c CaptureStatus) uint64 { return c.KernelDropped }))
	}, nil},
	{"syndog_resume_offset_periods", "gauge", func(s Status) string { return fmt.Sprintf("%d", s.ResumeOffset) }, nil},

	// Last completed period's raw counts: the pair whose difference
	// drives the detector.
	{"syndog_last_period_out_syn", "gauge", func(s Status) string { return fmt.Sprintf("%d", s.LastOutSYN) }, nil},
	{"syndog_last_period_in_synack", "gauge", func(s Status) string { return fmt.Sprintf("%d", s.LastInSYNACK) }, nil},

	// Keyed source attribution. Emitted unconditionally (zeros when
	// tracking is off) so enabling -track-sources never changes the
	// exposition's line set.
	{"syndog_sources_tracking", "gauge", func(s Status) string { return fmt.Sprintf("%d", b2i(s.Tracking)) }, nil},
	{"syndog_sources_tracked", "gauge", func(s Status) string { return fmt.Sprintf("%d", s.SourcesTracked) }, nil},
	{"syndog_sources_alarmed", "gauge", func(s Status) string { return fmt.Sprintf("%d", s.SourcesAlarmed) }, nil},
	{"syndog_sources_evicted_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.SourcesEvicted) }, nil},

	// Durability: how stale the on-disk snapshot is. Age is only
	// meaningful once a checkpoint has been written.
	{"syndog_checkpoints_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.Checkpoints) }, nil},
	{"syndog_checkpoint_failures_total", "counter", func(s Status) string { return fmt.Sprintf("%d", s.CheckpointFailures) }, nil},
	{"syndog_checkpoint_age_seconds", "gauge", func(s Status) string { return fmt.Sprintf("%g", s.CheckpointAge.Seconds()) },
		func(s Status) bool { return s.Checkpoints > 0 }},
}

// histogramDef is one latency-histogram family, table-driven like
// metricDefs: the family name, its HELP text, and how to pull its
// snapshot off a Status. Families render after every scalar metric so
// the scalar exposition stays byte-identical to the pre-histogram
// contract.
type histogramDef struct {
	name, help string
	snap       func(Status) LatencySnapshot
}

var histogramDefs = []histogramDef{
	{"syndog_period_processing_seconds",
		"Wall time to close one observation period (detector fold, keyed tracker fold, summary emission).",
		func(s Status) LatencySnapshot { return s.PeriodLatency }},
	{"syndog_checkpoint_write_seconds",
		"Wall time to persist one checkpoint snapshot (serialize, fsync, rename).",
		func(s Status) LatencySnapshot { return s.CheckpointLatency }},
}

// writeMetrics renders the single-agent exposition: the scalar table,
// then the latency histogram families.
func writeMetrics(w http.ResponseWriter, s Status) {
	for _, m := range metricDefs {
		if m.present != nil && !m.present(s) {
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", m.name, m.typ, m.name, m.value(s))
	}
	for _, h := range histogramDefs {
		writeHistogram(w, h.name, h.help, "", h.snap(s))
	}
}

// agentStatus pairs an agent's name with its status for the labeled
// multi-agent exposition.
type agentStatus struct {
	Name   string
	Status Status
}

// writeMetricsLabeled renders the multi-agent exposition: the same
// metric table, one TYPE header per metric and one {agent="..."}
// labeled sample per agent. A metric absent for every agent (e.g.
// checkpoint age before any checkpoint) omits its header too, matching
// the single-agent behavior.
func writeMetricsLabeled(w http.ResponseWriter, agents []agentStatus) {
	for _, m := range metricDefs {
		wrote := false
		for _, a := range agents {
			if m.present != nil && !m.present(a.Status) {
				continue
			}
			if !wrote {
				fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
				wrote = true
			}
			fmt.Fprintf(w, "%s{agent=%q} %s\n", m.name, a.Name, m.value(a.Status))
		}
	}
	for _, h := range histogramDefs {
		writeHistogramHeader(w, h.name, h.help)
		for _, a := range agents {
			writeHistogramSamples(w, h.name, fmt.Sprintf("agent=%q", a.Name), h.snap(a.Status))
		}
	}
}
