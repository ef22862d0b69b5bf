package main

import (
	"time"

	"repro/internal/experiment"
	"repro/internal/trace"
)

// sweepSite is one table of the sweep: a site profile and the
// methodology of its paper table.
type sweepSite struct {
	profile            trace.Profile
	rates              []float64
	onsetMin, onsetMax time.Duration
	floodDur           time.Duration
}

func (s sweepSite) config(bg *trace.Trace, seed int64, runs, parallelism int) experiment.SweepConfig {
	return experiment.SweepConfig{
		Profile:       s.profile,
		Background:    bg,
		Rates:         s.rates,
		Runs:          runs,
		OnsetMin:      s.onsetMin,
		OnsetMax:      s.onsetMax,
		FloodDuration: s.floodDur,
		Seed:          seed,
		Parallelism:   parallelism,
	}
}

// sweepBench is the researcher's time-to-table: every pass synthesizes
// both site backgrounds from the seed and sweeps Table 2 (UNC) and
// Table 3 (Auckland) at paper fidelity on two workers.
type sweepBench struct {
	seed int64
	sc   scale
	ref  [][]experiment.Performance
}

func (b *sweepBench) sites() []sweepSite { return []sweepSite{b.sc.unc, b.sc.auckland} }

// setup computes the reference rows with one worker.
func (b *sweepBench) setup() (refs, error) {
	var r refs
	for i, s := range b.sites() {
		bg, err := trace.Generate(s.profile, b.seed+int64(i))
		if err != nil {
			return refs{}, err
		}
		rows, err := experiment.Sweep(s.config(bg, b.seed, b.sc.sweepRuns, 1))
		if err != nil {
			return refs{}, err
		}
		r.Rows = append(r.Rows, rows)
	}
	return r, nil
}

func (b *sweepBench) load(r refs) { b.ref = r.Rows }

func (b *sweepBench) pass(tr *tracer) (passResult, error) {
	sites := b.sites()
	bgs := make([]*trace.Trace, len(sites))
	records := 0
	for i, s := range sites {
		id := tr.begin("trace.generate")
		bg, err := trace.Generate(s.profile, b.seed+int64(i))
		tr.end(id)
		if err != nil {
			return passResult{}, err
		}
		bgs[i] = bg
		records += len(bg.Records)
	}
	res := passResult{records: records}
	for i, s := range sites {
		id := tr.begin("experiment.sweep")
		cpu0, wall0 := cpuTime(), time.Now()
		rows, err := experiment.Sweep(s.config(bgs[i], b.seed, b.sc.sweepRuns, 2))
		if tr != nil {
			tr.sweepCPU += cpuTime() - cpu0
			tr.sweepWall += time.Since(wall0)
		}
		tr.end(id)
		if err != nil {
			return passResult{}, err
		}
		res.rows = append(res.rows, rows)
	}
	return res, nil
}
