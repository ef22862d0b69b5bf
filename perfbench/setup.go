package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

// setupFlag runs the harness as the set-up process: it synthesizes the
// fixture into the given directory and writes the references there.
// Set-up runs in a process of its own so that the measuring process
// never holds the materialised fixture trace: its heap, and the
// runtime's metadata for that heap, would stay in the measured RSS.
const setupFlag = "--setup-into"

// refs is what set-up hands the measuring process: the references the
// output checks compare against.
type refs struct {
	Frames   int
	Reports  []core.Report
	View     sourcetrack.TrackerView
	OneShard sourcetrack.TrackerView
	Peers    [][]summary.PeriodSummary
	Rows     [][]experiment.Performance
}

// runSetup is the body of the set-up process.
func runSetup(o options, dir string) error {
	w, err := newWorkload(o, dir)
	if err != nil {
		return err
	}
	r, err := w.setup()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "refs.gob"))
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupInChild runs set-up in a child process and loads its references.
func setupInChild(o options, w workload, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, setupFlag, dir, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("set-up process: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, "refs.gob"))
	if err != nil {
		return err
	}
	defer f.Close()
	var r refs
	if err := gob.NewDecoder(f).Decode(&r); err != nil {
		return fmt.Errorf("references: %w", err)
	}
	w.load(r)
	return nil
}
