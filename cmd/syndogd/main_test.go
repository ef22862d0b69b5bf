package main

// The daemon's behavior (replay, resume equivalence, endpoints,
// checkpointing) is tested in internal/daemon; these tests cover what
// the command itself owns: flag validation and the startup error
// paths that must exit non-zero — an unreadable or invalid trace, and
// a snapshot whose config disagrees with the flags.

import (
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/packet"
	"repro/internal/trace"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-in", "x.trace", "-checkpoint", "5s"}); err == nil ||
		!strings.Contains(err.Error(), "-state") {
		t.Error("-checkpoint without -state accepted")
	}
	if err := run([]string{"-in", "x.trace", "-detector", "psychic"}); err == nil {
		t.Error("unknown detector accepted")
	}
	if err := run([]string{"-in", "x.trace", "-detector", "adaptive-ewma", "-state", "s.json"}); err == nil ||
		!strings.Contains(err.Error(), "syndog-cusum") {
		t.Error("-state with a stateless baseline detector accepted")
	}
	if err := run([]string{"-in", "x.pcap"}); err == nil ||
		!strings.Contains(err.Error(), "stub prefix") {
		t.Error("pcap without -prefix accepted")
	}
	if err := run([]string{"-in", "x.pcap", "-prefix", "not-a-prefix"}); err == nil {
		t.Error("malformed -prefix accepted")
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	dir := t.TempDir()

	// Garbage bytes: the binary codec must refuse them at startup.
	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", garbage}); err == nil {
		t.Error("garbage trace accepted")
	}

	// Structurally valid file whose records are unsorted: replay would
	// mis-bucket periods, so load-time validation must reject it.
	host := netip.MustParseAddr("10.0.0.1")
	syn := trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut, Src: host, Dst: host}
	early, late := syn, syn
	early.Ts, late.Ts = time.Second, 2*time.Second
	unsorted := filepath.Join(dir, "unsorted.csv")
	if err := trace.Save(unsorted, &trace.Trace{
		Name: "unsorted", Span: time.Hour,
		Records: []trace.Record{late, early},
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", unsorted}); !errors.Is(err, trace.ErrUnsorted) {
		t.Errorf("unsorted trace: err = %v, want ErrUnsorted", err)
	}

	// A trace shorter than one observation period cannot produce a
	// single report.
	short := filepath.Join(dir, "short.trace")
	if err := trace.Save(short, &trace.Trace{Name: "short", Span: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", short}); err == nil {
		t.Error("sub-period trace accepted")
	}
}

func TestRunRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()

	// Snapshot taken at the default parameters.
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state.json")
	if err := daemon.WriteStateFile(daemon.State{Snapshot: agent.Snapshot()}, state); err != nil {
		t.Fatal(err)
	}
	tr := filepath.Join(dir, "bg.trace")
	if err := trace.Save(tr, &trace.Trace{Name: "bg", Span: time.Hour}); err != nil {
		t.Fatal(err)
	}

	// Flags that disagree with the snapshot must be a startup error,
	// not silently lose to the snapshot.
	err = run([]string{"-in", tr, "-state", state, "-t0", "30s"})
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("config-mismatch resume: err = %v, want config mismatch", err)
	}
	err = run([]string{"-in", tr, "-state", state, "-N", "9.9"})
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("threshold mismatch resume: err = %v, want config mismatch", err)
	}

	// Corrupt state is equally fatal.
	badState := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badState, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", tr, "-state", badState}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestRunMultiAgentFlagValidation(t *testing.T) {
	if err := run([]string{"-agent", "noequals"}); err == nil ||
		!strings.Contains(err.Error(), "name=input") {
		t.Errorf("malformed -agent: %v", err)
	}
	if err := run([]string{"-agent", "=x.trace"}); err == nil {
		t.Error("empty agent name accepted")
	}
	if err := run([]string{"-in", "x.trace", "-agent", "a=y.trace"}); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Errorf("-in with -agent: %v", err)
	}
	if err := run([]string{"-config", "c.json", "-in", "x.trace"}); err == nil ||
		!strings.Contains(err.Error(), "-config") {
		t.Errorf("-config with -in: %v", err)
	}
	if err := run([]string{"-agent", "a=x.trace", "-agent", "b=y.trace", "-state", "s.json"}); err == nil ||
		!strings.Contains(err.Error(), "-config") {
		t.Errorf("shared -state across agents: %v", err)
	}
	if err := run([]string{"-agent", "a=x.trace", "-agent", "a=y.trace"}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate agent names: %v", err)
	}
	if err := run([]string{"-in", "x.trace", "-on-mismatch", "panic"}); err == nil ||
		!strings.Contains(err.Error(), "on-mismatch") {
		t.Errorf("unknown policy: %v", err)
	}
	if err := run([]string{"-config", "/nonexistent.json"}); err == nil {
		t.Error("missing config file accepted")
	}
	if err := run([]string{"-agent", "bad name=x.trace"}); err == nil {
		t.Error("agent name with a space accepted")
	}
}

func TestRunConfigFileValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "agents.json")

	// Unknown fields are config typos, refused at the door.
	if err := os.WriteFile(cfg, []byte(`{"agents":[{"name":"a","inptu":"x.trace"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", cfg}); err == nil {
		t.Error("config with unknown field accepted")
	}

	// A structurally valid config still goes through spec validation.
	if err := os.WriteFile(cfg, []byte(`{"agents":[{"name":"a","input":"x.pcap"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", cfg}); err == nil ||
		!strings.Contains(err.Error(), "stub prefix") {
		t.Errorf("pcap agent without prefix: %v", err)
	}
}

// TestRunMismatchPolicyFlag: -on-mismatch reset turns the historical
// hard error on a disagreeing snapshot into a fresh start (the daemon
// then runs; we only need the startup decision, so the trace replays
// instantly and the listen address is grabbed before SIGTERM... which
// run() cannot deliver to itself — instead, exercise the policy at the
// layer run() delegates to and pin that the flag reaches it).
func TestRunMismatchPolicyFlag(t *testing.T) {
	dir := t.TempDir()
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state.json")
	if err := daemon.WriteStateFile(daemon.State{Snapshot: agent.Snapshot()}, state); err != nil {
		t.Fatal(err)
	}
	tr := filepath.Join(dir, "bg.trace")
	if err := trace.Save(tr, &trace.Trace{Name: "bg", Span: time.Hour}); err != nil {
		t.Fatal(err)
	}

	// Default: the mismatch is fatal (pinned above); with migrate the
	// same spec builds.
	spec := daemon.AgentSpec{Name: "a", Input: tr, State: state, Threshold: 9.9, OnMismatch: daemon.PolicyMigrate}
	d, action, err := daemon.BuildAgent(spec, daemon.BuildEnv{ProcName: "syndogd", Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if action != daemon.ActionMigrated {
		t.Errorf("action = %s, want migrated", action)
	}
}
