package main

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fusion"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

// passResult is what one pass produced: the work it did and the
// outputs the checks compare with the references built at setup.
type passResult struct {
	records int
	reports []core.Report
	view    sourcetrack.TrackerView
	capture capture.Stats
	fused   *fusion.FusedPeriod
	rows    [][]experiment.Performance
	// counters are the layers' own exact ledgers for the pass.
	counters map[string]float64
}

func (b *captureBench) check(r passResult) error {
	if err := equalReports(r.reports, b.ref.Reports); err != nil {
		return err
	}
	if !b.keyed {
		return nil
	}
	if err := equalViews(r.view, b.ref.View); err != nil {
		return err
	}
	if err := equalTopK(r.view, b.ref.OneShard, summary.DefaultTopK); err != nil {
		return fmt.Errorf("one-shard reference: %w", err)
	}
	if err := balancedCapture(r.capture, b.ref.Frames, r.records); err != nil {
		return err
	}
	if r.fused == nil {
		return fmt.Errorf("fused alarm did not latch")
	}
	return nil
}

func (b *sweepBench) check(r passResult) error {
	if err := equalRows(r.rows, b.ref); err != nil {
		return err
	}
	// Table 2's strong rows: every trial detected, no false alarm.
	for _, p := range r.rows[0] {
		if p.Rate >= 60 && (p.DetectionProb != 1 || p.FalseAlarms != 0) {
			return fmt.Errorf("UNC at %v SYN/s: detection %v, %d false alarms", p.Rate, p.DetectionProb, p.FalseAlarms)
		}
	}
	return nil
}

// equalReports compares the streamed reports with the counts-path
// reference, field by field.
func equalReports(got, want []core.Report) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d reports, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("report %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// equalViews compares the tracker's final view with the reference
// tracker's, every tracked key included.
func equalViews(got, want sourcetrack.TrackerView) error {
	if got.Periods != want.Periods || got.Stats != want.Stats {
		return fmt.Errorf("tracker at %d periods %+v, reference %d periods %+v", got.Periods, got.Stats, want.Periods, want.Stats)
	}
	if len(got.Sources) != len(want.Sources) {
		return fmt.Errorf("%d tracked sources, reference has %d", len(got.Sources), len(want.Sources))
	}
	for i := range got.Sources {
		if got.Sources[i] != want.Sources[i] {
			return fmt.Errorf("source %d = %+v, reference %+v", i, got.Sources[i], want.Sources[i])
		}
	}
	return nil
}

// equalTopK compares the k most suspect sources of two views.
func equalTopK(got, want sourcetrack.TrackerView, k int) error {
	if len(got.Sources) < k || len(want.Sources) < k {
		return fmt.Errorf("%d tracked sources, reference %d; want at least %d", len(got.Sources), len(want.Sources), k)
	}
	for i := range k {
		if got.Sources[i] != want.Sources[i] {
			return fmt.Errorf("top source %d = %+v, reference %+v", i, got.Sources[i], want.Sources[i])
		}
	}
	return nil
}

// balancedCapture checks the capture's loss ledger: every frame of the
// file read and parsed, nothing dropped, and every parsed record
// delivered to the aggregator.
func balancedCapture(s capture.Stats, frames, records int) error {
	if s.Frames != uint64(frames) || s.Parsed+s.Skipped != s.Frames || s.Parsed != uint64(records) ||
		s.RingDropped != 0 || s.KernelDropped != 0 {
		return fmt.Errorf("capture ledger %+v does not balance against %d frames, %d records", s, frames, records)
	}
	return nil
}

// equalRows compares sweep rows with the one-worker reference.
func equalRows(got, want [][]experiment.Performance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tables, reference has %d", len(got), len(want))
	}
	for t := range got {
		if len(got[t]) != len(want[t]) {
			return fmt.Errorf("table %d: %d rows, reference has %d", t, len(got[t]), len(want[t]))
		}
		for i := range got[t] {
			if got[t][i] != want[t][i] {
				return fmt.Errorf("table %d row %d = %+v, reference %+v", t, i, got[t][i], want[t][i])
			}
		}
	}
	return nil
}
