package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/sourcetrack"
)

func TestFleetEndToEnd(t *testing.T) {
	// Small but complete fleet: the run fails with an error when any
	// stub's verdict disagrees with ground truth, so a nil error is
	// the assertion.
	err := run([]string{
		"-stubs", "4", "-flooders", "2", "-rate", "160",
		"-duration", "90s", "-onset", "30s", "-t0", "10s", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFleetNoFlooders(t *testing.T) {
	// All-clean fleet: nobody may alarm.
	err := run([]string{
		"-stubs", "3", "-flooders", "0", "-duration", "60s", "-onset", "20s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFleetValidation(t *testing.T) {
	if err := run([]string{"-stubs", "2", "-flooders", "5"}); err == nil {
		t.Error("flooders > stubs accepted")
	}
	if err := run([]string{"-stubs", "0"}); err == nil {
		t.Error("zero stubs accepted")
	}
	if err := run([]string{"-stubs", "1000"}); err == nil {
		t.Error("absurd stub count accepted")
	}
	if err := run([]string{"-trials", "0"}); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestFleetParallelTrials(t *testing.T) {
	// Two independent campaigns fanned over two workers; each must
	// still agree with its own ground truth.
	err := run([]string{
		"-stubs", "3", "-flooders", "1", "-rate", "80",
		"-duration", "60s", "-onset", "20s", "-seed", "5",
		"-trials", "2", "-parallel", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFleetCampaignDeterministic(t *testing.T) {
	cfg := campaignConfig{
		stubs: 3, flooders: 1, totalRate: 80,
		duration: 60 * time.Second, onset: 20 * time.Second,
		t0: 10 * time.Second, benign: 40, seed: 7,
	}
	var a, b bytes.Buffer
	if err := runCampaign(cfg, &a); err != nil {
		t.Fatal(err)
	}
	if err := runCampaign(cfg, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different reports:\n--- first ---\n%s\n--- second ---\n%s", a.String(), b.String())
	}
	if !bytes.Contains(a.Bytes(), []byte("recordsDropped: ")) {
		t.Errorf("report missing the recordsDropped ledger line:\n%s", a.String())
	}
}

func TestFleetSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-stubs", "3", "-flooders", "1", "-rate", "80",
		"-duration", "60s", "-onset", "20s", "-t0", "10s", "-seed", "3",
		"-snapshot-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every stub's agent must be on disk as a resumable snapshot with
	// the campaign's config; stub 0 hosted the slave, so its restored
	// agent must still carry the alarm.
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("stub%02d.json", i))
		agent, _, action, err := daemon.LoadOrNewState(path, core.Config{T0: 10 * time.Second}, fleetTrack(), daemon.PolicyError)
		if err != nil {
			t.Fatalf("stub %d: %v", i, err)
		}
		if action != daemon.ActionResumed {
			t.Fatalf("stub %d: snapshot missing", i)
		}
		if len(agent.Reports()) == 0 {
			t.Errorf("stub %d: empty report history", i)
		}
		if wantAlarm := i == 0; agent.Alarmed() != wantAlarm {
			t.Errorf("stub %d: alarmed = %v, want %v", i, agent.Alarmed(), wantAlarm)
		}
	}
	// A mismatched config must refuse the fleet snapshot, same as any
	// other resume.
	path := filepath.Join(dir, "stub00.json")
	if _, _, _, err := daemon.LoadOrNewState(path, core.Config{}, fleetTrack(), daemon.PolicyError); err == nil {
		t.Error("fleet snapshot resumed under wrong t0")
	}
}

// fleetTrack is the keyed configuration the fleet's per-stub trackers
// run with.
func fleetTrack() *sourcetrack.Config {
	return &sourcetrack.Config{
		KeyBits:    8,
		MaxSources: 64,
		Agent:      core.Config{T0: 10 * time.Second},
	}
}

func TestFleetSnapshotDirPerTrial(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-stubs", "2", "-flooders", "1", "-rate", "80",
		"-duration", "60s", "-onset", "20s", "-t0", "10s", "-seed", "3",
		"-trials", "2", "-parallel", "2", "-snapshot-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("trial%d", trial), "stub00.json")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("trial %d snapshot: %v", trial, err)
		}
	}
}

// TestFleetSnapshotCarriesKeyedState: the fleet's snapshots include
// the keyed per-source half, so syndogd -track-sources resumes the
// attribution evidence too, not just the aggregate CUSUM. Before this,
// the fleet wrote aggregate-only snapshots and dropped the tracker
// state on the floor.
func TestFleetSnapshotCarriesKeyedState(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-stubs", "3", "-flooders", "1", "-rate", "80",
		"-duration", "60s", "-onset", "20s", "-t0", "10s", "-seed", "3",
		"-snapshot-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stub 0 hosted the slave: its keyed half must restore with the
	// flood evidence intact — tracked sources, and at least one keyed
	// alarm pointing at the spoofed blocks.
	path := filepath.Join(dir, "stub00.json")
	agent, tracker, action, err := daemon.LoadOrNewState(path, core.Config{T0: 10 * time.Second}, fleetTrack(), daemon.PolicyError)
	if err != nil {
		t.Fatal(err)
	}
	if action != daemon.ActionResumed || tracker == nil {
		t.Fatalf("action = %v, tracker = %v", action, tracker)
	}
	if tracker.Periods() != len(agent.Reports()) {
		t.Errorf("period clocks disagree: keyed %d, aggregate %d",
			tracker.Periods(), len(agent.Reports()))
	}
	st := tracker.Stats()
	if st.Tracked == 0 {
		t.Error("keyed half restored empty")
	}
	alarmed := 0
	for _, s := range tracker.Sources(0) {
		if s.Alarmed {
			alarmed++
		}
	}
	if alarmed == 0 {
		t.Error("slave stub's keyed alarms were not carried")
	}
	// The same file still reads aggregate-only through the keyed-unaware
	// reader (back-compat with pre-keyed snapshots).
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plain, err := core.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("aggregate-only read of keyed fleet snapshot: %v", err)
	}
	if len(plain.Reports()) != len(agent.Reports()) || plain.Alarmed() != agent.Alarmed() {
		t.Errorf("aggregate-only read: %d reports alarmed=%v, keyed-aware read: %d reports alarmed=%v",
			len(plain.Reports()), plain.Alarmed(), len(agent.Reports()), agent.Alarmed())
	}
}
