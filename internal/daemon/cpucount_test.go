package daemon

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// setProcs runs the rest of the test at GOMAXPROCS n and restores the
// previous value when the test ends. GOMAXPROCS is process-wide, so a
// test that calls it must not run in parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// keyedSpec is a keyed agent over in whose /24 table of 64 states the
// test trace's flood, spoofed across 240.0.0.0/4, overfills many
// times over.
func keyedSpec(in, state string) AgentSpec {
	return AgentSpec{Name: "edge", Input: in, State: state, TrackSources: true, MaxSources: 64}
}

// keyedRun builds spec's agent, replays its input to the end, saves
// its state to spec.State and returns the /reports and /sources?n=-1
// bodies and the state file.
func keyedRun(t *testing.T, spec AgentSpec) (reports, sources string, state []byte) {
	t.Helper()
	d, _, err := BuildAgent(spec, BuildEnv{ProcName: "syndogd"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveState(spec.State); err != nil {
		t.Fatal(err)
	}
	if state, err = os.ReadFile(spec.State); err != nil {
		t.Fatal(err)
	}
	_, reports = get(t, d, "/reports")
	_, sources = get(t, d, "/sources?n=-1")
	return reports, sources, state
}

// TestKeyedResumeAtThreeCPUs pins that a keyed checkpoint taken on a
// host whose CPU count does not divide MaxSources resumes: the state
// file holds at most MaxSources keys, BuildAgent restores it, and the
// resumed run's /reports and /sources equal an uninterrupted run's.
func TestKeyedResumeAtThreeCPUs(t *testing.T) {
	setProcs(t, 3)
	dir := t.TempDir()
	tr := testTrace(t, true)
	full := filepath.Join(dir, "full.trace")
	half := filepath.Join(dir, "half.trace")
	if err := trace.Save(full, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.Save(half, truncated(tr, 15*core.DefaultObservationPeriod)); err != nil {
		t.Fatal(err)
	}
	wantReports, wantSources, _ := keyedRun(t, keyedSpec(full, filepath.Join(dir, "ref.json")))

	resume := filepath.Join(dir, "resume.json")
	keyedRun(t, keyedSpec(half, resume))
	st, err := ReadStateFile(resume)
	if err != nil {
		t.Fatal(err)
	}
	if ks := st.Sources; ks.Stats.Evicted == 0 || len(ks.Keys) > ks.MaxSources {
		t.Errorf("checkpoint holds %d keys against max sources %d after %d evictions; want a full table within bounds",
			len(ks.Keys), ks.MaxSources, ks.Stats.Evicted)
	}
	gotReports, gotSources, _ := keyedRun(t, keyedSpec(full, resume))
	if gotReports != wantReports {
		t.Error("resumed /reports differs from the uninterrupted run")
	}
	if gotSources != wantSources {
		t.Error("resumed /sources differs from the uninterrupted run")
	}
}

// TestKeyedOutputIndependentOfCPUCount pins that the keyed outputs are
// a function of the records alone: the same replay at GOMAXPROCS 1 and
// 3 serves the same /sources rows and writes the same state file.
func TestKeyedOutputIndependentOfCPUCount(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	setProcs(t, 1)
	_, wantSources, wantState := keyedRun(t, keyedSpec(in, filepath.Join(dir, "one.json")))
	setProcs(t, 3)
	_, gotSources, gotState := keyedRun(t, keyedSpec(in, filepath.Join(dir, "three.json")))
	if gotSources != wantSources {
		t.Error("/sources at GOMAXPROCS 3 differs from GOMAXPROCS 1")
	}
	if !bytes.Equal(gotState, wantState) {
		t.Error("state file at GOMAXPROCS 3 differs from GOMAXPROCS 1")
	}
}

// TestBuildAgentOneSourceAtTwoCPUs pins that a one-state table builds
// on a host with more CPUs than MaxSources.
func TestBuildAgentOneSourceAtTwoCPUs(t *testing.T) {
	setProcs(t, 2)
	dir := t.TempDir()
	spec := AgentSpec{Name: "edge", Input: saveTestTrace(t, dir, true), TrackSources: true, MaxSources: 1}
	d, _, err := BuildAgent(spec, BuildEnv{ProcName: "syndogd"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
