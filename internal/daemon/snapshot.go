package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sourcetrack"
)

// ErrConfigMismatch reports a snapshot whose parameters disagree with
// the requested configuration. Resuming such a snapshot would silently
// run parameters nobody asked for — or, worse, graft a K̄/CUSUM state
// onto a detector with different semantics — so it is a hard startup
// error.
var ErrConfigMismatch = errors.New("daemon: snapshot config disagrees with requested config")

// State is the daemon's on-disk snapshot: the aggregate agent
// snapshot plus, when source tracking is enabled, the keyed tracker
// state. With Sources nil the encoding is byte-identical to a bare
// core.Snapshot, so state files written before (or without) source
// tracking stay interchangeable with the aggregate-only format, and
// core.ReadSnapshot can still read a keyed file (ignoring the keyed
// half — use LoadOrNewState to refuse that silently-lossy path).
type State struct {
	core.Snapshot
	Sources *sourcetrack.Snapshot `json:"sources,omitempty"`
}

// Write serializes the state as indented JSON, the on-disk format.
func (st State) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// ReadStateFile loads a daemon state file without restoring it.
func ReadStateFile(path string) (State, error) {
	f, err := os.Open(path)
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	var st State
	if err := json.NewDecoder(f).Decode(&st); err != nil {
		return State{}, fmt.Errorf("%w: %v", core.ErrBadSnapshot, err)
	}
	return st, nil
}

// LoadOrNewState resumes the aggregate agent from statePath when the
// file exists, otherwise builds a fresh agent from cfg; when track is
// non-nil it does the same for the source tracker. It returns how the
// state was obtained.
//
// Under PolicyError every failure is surfaced: an unreadable state
// file, a corrupt snapshot, and a snapshot whose effective Config
// differs from cfg (after defaulting) are all errors — the operator
// must either fix the flags or move the snapshot aside, not have one
// silently win over the other. The keyed half adds:
//
//   - A state file carrying keyed sources is refused when tracking is
//     disabled — dropping accumulated per-key evidence must be an
//     explicit operator decision (move the file aside), never silent.
//   - Keyed keying/capacity/parameter changes fail with
//     sourcetrack.ErrConfigMismatch.
//   - Enabling tracking over an aggregate-only snapshot fast-forwards
//     an empty tracker to the agent's resume point: keyed evidence
//     starts accumulating from there.
//   - The two halves' period clocks must agree.
//
// Under PolicyMigrate a configuration mismatch rewrites the snapshot
// via MigrateState and restores the result; under PolicyReset the
// snapshot is discarded and the agent starts fresh. Corrupt snapshots
// (core.ErrBadSnapshot, sourcetrack.ErrBadSnapshot) and I/O failures
// stay fatal under every policy — a policy decides what to do with a
// readable snapshot that asks for different parameters, never papers
// over a broken one.
func LoadOrNewState(statePath string, cfg core.Config, track *sourcetrack.Config, policy Policy) (*core.Agent, *sourcetrack.Tracker, StateAction, error) {
	var (
		agent   *core.Agent
		tracker *sourcetrack.Tracker
	)
	action, err := startState(statePath, cfg, track, policy, func(st *State) (err error) {
		agent, tracker, err = restoreState(st, cfg, track)
		return err
	})
	if err != nil {
		return nil, nil, "", err
	}
	return agent, tracker, action, nil
}

// restoreState builds an agent and its keyed tracker under cfg and
// track: fresh when st is nil, otherwise restored from st. It is the
// one strict restore behind every resume, migration and reload, and
// refuses, in this order, a corrupt aggregate half, an aggregate half
// whose configuration is not cfg (after defaulting), a keyed half with
// tracking off, and a keyed half that does not restore under track or
// whose period clock disagrees with the aggregate's. Tracking over an
// aggregate-only state gets an empty tracker fast-forwarded to the
// aggregate's resume point.
func restoreState(st *State, cfg core.Config, track *sourcetrack.Config) (*core.Agent, *sourcetrack.Tracker, error) {
	var (
		a   *core.Agent
		err error
	)
	if st == nil {
		a, err = core.NewAgent(cfg)
	} else if a, err = core.RestoreAgent(st.Snapshot); err == nil && a.Config() != cfg.Normalized() {
		err = fmt.Errorf("%w: snapshot holds %+v, flags request %+v", ErrConfigMismatch, a.Config(), cfg.Normalized())
	}
	if err != nil {
		return nil, nil, err
	}
	if st == nil || st.Sources == nil {
		if track == nil {
			return a, nil, nil
		}
		tr, err := sourcetrack.New(*track)
		if err == nil {
			err = tr.FastForward(len(a.Reports()))
		}
		if err != nil {
			return nil, nil, err
		}
		return a, tr, nil
	}
	if track == nil {
		return nil, nil, fmt.Errorf("%w: snapshot carries keyed source state; resume with -track-sources or move the snapshot aside",
			ErrConfigMismatch)
	}
	tr, err := sourcetrack.Restore(*st.Sources, *track)
	if err != nil {
		return nil, nil, err
	}
	if tr.Periods() != len(st.Reports) {
		return nil, nil, fmt.Errorf("%w: keyed half holds %d periods but aggregate holds %d",
			core.ErrBadSnapshot, tr.Periods(), len(st.Reports))
	}
	return a, tr, nil
}

// WriteStateFile persists a daemon state durably: it writes to a
// temporary file in the destination directory, fsyncs it, renames it
// over path, and fsyncs the directory so the rename itself survives a
// crash. A reader never observes a partially-written snapshot.
func WriteStateFile(st State, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	if err := st.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename durable. Some filesystems do not support fsync
	// on directories; that is not worth failing the checkpoint over.
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		df.Close()
	}
	return nil
}

// SaveState writes the agent's current snapshot to path (typically
// Options.StatePath). The snapshot is captured under the daemon lock
// and persisted outside it, so a slow disk never stalls replay. Only
// the CUSUM agent carries snapshot state; daemons running a baseline
// detector cannot persist.
func (d *Daemon) SaveState(path string) error {
	st, err := d.State()
	if err != nil {
		return err
	}
	return WriteStateFile(st, path)
}

// State captures the daemon's current persistable state under the
// daemon lock — the same snapshot SaveState writes, returned in
// memory. The supervisor's reload path migrates it instead of (or
// before) persisting. Only the CUSUM agent carries snapshot state;
// daemons running a baseline detector cannot produce one.
//
// A file replay's snapshot is taken at a period boundary: while the
// replay has fed part of a file period, State waits for that period to
// close, so the keyed half never persists open-period counts (which a
// restart would count again). A live period can stay open for as long
// as the wire is quiet, so State does not wait for one.
func (d *Daemon) State() (State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.midPeriod {
		d.boundary.Wait()
	}
	if d.agent == nil {
		return State{}, fmt.Errorf("daemon: detector %q has no snapshot state", d.det.Name())
	}
	st := State{Snapshot: d.agent.Snapshot()}
	if tr := d.opts.Tracker; tr != nil {
		ks := tr.Snapshot()
		st.Sources = &ks
	}
	return st, nil
}

// Checkpoint persists the agent to Options.StatePath and records the
// outcome: the checkpoint time feeds the /metrics checkpoint-age
// gauge, and failures feed syndog_checkpoint_failures_total plus
// /status's lastCheckpointError — a dying disk is visible long before
// the final shutdown snapshot is lost. A later success clears the
// error but not the failure count. It is a no-op when no state path
// is configured.
func (d *Daemon) Checkpoint() error {
	if d.opts.StatePath == "" {
		return nil
	}
	writeStart := time.Now()
	err := d.SaveState(d.opts.StatePath)
	elapsed := time.Since(writeStart).Seconds()
	d.mu.Lock()
	d.checkpointLatency.observe(elapsed)
	if err != nil {
		d.checkpointFailures++
		d.lastCheckpointErr = err
	} else {
		d.checkpoints++
		d.lastCheckpoint = time.Now()
		d.lastCheckpointErr = nil
	}
	d.mu.Unlock()
	return err
}
