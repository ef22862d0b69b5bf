package daemon

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// syncBuf is a goroutine-safe log sink: the supervisor, its agents and
// their checkpoint loops all write concurrently.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var bannerRE = regexp.MustCompile(`serving on http://([0-9.]+:[0-9]+)`)

// startSupervisor runs s on an ephemeral port and returns the base URL
// plus a shutdown function that cancels the run and returns its error.
func startSupervisor(t *testing.T, s *Supervisor, log *syncBuf) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, "127.0.0.1:0") }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := bannerRE.FindStringSubmatch(log.String()); m != nil {
			url := "http://" + m[1]
			return url, func() error {
				cancel()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("supervisor did not shut down")
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no banner; log:\n%s", log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func httpPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitReplayDone polls an agent's /status until replayDone.
func waitReplayDone(t *testing.T, base, agent string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := httpGet(t, base+"/agents/"+agent+"/status")
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.ReplayDone {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent %s never finished: %+v", agent, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func reloadBody(t *testing.T, specs []AgentSpec) string {
	t.Helper()
	b, err := json.Marshal(specFile{Agents: specs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeResults(t *testing.T, body string) map[string]ReloadResult {
	t.Helper()
	var rs []ReloadResult
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatalf("bad reload response %q: %v", body, err)
	}
	out := make(map[string]ReloadResult, len(rs))
	for _, r := range rs {
		out[r.Name] = r
	}
	return out
}

// TestSupervisorTwoAgents pins the multi-agent HTTP plane: per-agent
// routing, aggregated status/metrics with agent labels, and the
// single-agent-only root endpoints turning 404.
func TestSupervisorTwoAgents(t *testing.T) {
	dir := t.TempDir()
	flooded := saveTestTrace(t, dir, true)
	clean := filepath.Join(dir, "clean.trace")
	if err := trace.Save(clean, testTrace(t, false)); err != nil {
		t.Fatal(err)
	}
	specs := []AgentSpec{
		{Name: "edge-a", Input: flooded, TrackSources: true, KeyBits: 8, MaxSources: 64},
		{Name: "edge-b", Input: clean},
	}
	var log syncBuf
	s, err := NewSupervisor(specs, SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)

	stA := waitReplayDone(t, base, "edge-a")
	stB := waitReplayDone(t, base, "edge-b")
	if !stA.Alarmed || stB.Alarmed {
		t.Fatalf("alarms: a=%v b=%v", stA.Alarmed, stB.Alarmed)
	}

	// /agents listing.
	code, body := httpGet(t, base+"/agents")
	if code != http.StatusOK {
		t.Fatalf("/agents: %d", code)
	}
	var sums []AgentSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Name != "edge-a" || sums[1].Name != "edge-b" {
		t.Fatalf("summaries: %s", body)
	}
	if sums[0].Generation != 1 || sums[0].LastAction != ActionFresh {
		t.Fatalf("summary a: %+v", sums[0])
	}

	// Per-agent routing, including query strings.
	if code, body := httpGet(t, base+"/agents/edge-a/sources?n=2"); code != http.StatusOK || !strings.Contains(body, `"enabled":true`) {
		t.Fatalf("a sources: %d %s", code, body)
	}
	if code, body := httpGet(t, base+"/agents/edge-b/sources"); code != http.StatusOK || !strings.Contains(body, `"enabled":false`) {
		t.Fatalf("b sources: %d %s", code, body)
	}
	if code, _ := httpGet(t, base+"/agents/nope/status"); code != http.StatusNotFound {
		t.Fatalf("unknown agent: %d", code)
	}
	if code, _ := httpGet(t, base+"/agents/edge-a"); code != http.StatusOK {
		t.Fatalf("bare agent path: %d", code)
	}

	// Aggregate status wraps per-agent statuses.
	code, body = httpGet(t, base+"/status")
	if code != http.StatusOK || !strings.Contains(body, `"agents"`) || !strings.Contains(body, `"edge-b"`) {
		t.Fatalf("multi status: %d %s", code, body)
	}

	// Labeled metrics: one TYPE line per metric, one sample per agent.
	code, body = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(body, `syndog_alarmed{agent="edge-a"} 1`) ||
		!strings.Contains(body, `syndog_alarmed{agent="edge-b"} 0`) {
		t.Fatalf("labeled metrics missing:\n%s", body)
	}
	if strings.Count(body, "# TYPE syndog_periods_total counter") != 1 {
		t.Fatalf("duplicated TYPE header:\n%s", body)
	}

	// Root reports/summaries/sources are single-agent conveniences.
	if code, _ := httpGet(t, base+"/reports"); code != http.StatusNotFound {
		t.Fatalf("root /reports with two agents: %d", code)
	}
	if code, _ := httpGet(t, base+"/summaries"); code != http.StatusNotFound {
		t.Fatalf("root /summaries with two agents: %d", code)
	}
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}

	if err := shutdown(); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSupervisorSingleAgentBackCompat pins that a one-agent supervisor
// speaks exactly the old daemon's root HTTP dialect.
func TestSupervisorSingleAgentBackCompat(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	var log syncBuf
	s, err := NewSupervisor([]AgentSpec{{Name: "only", Input: in}},
		SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	waitReplayDone(t, base, "only")

	// Old single-agent banner format, first line.
	first := strings.SplitN(log.String(), "\n", 2)[0]
	if !strings.Contains(first, `syndogd: serving on http://`) || !strings.Contains(first, "30 periods") {
		t.Fatalf("banner: %q", first)
	}

	// Root status: the bare Status object, not the multi-agent wrapper.
	_, body := httpGet(t, base+"/status")
	if strings.Contains(body, `"agents"`) || !strings.Contains(body, `"alarmed":true`) {
		t.Fatalf("single status: %s", body)
	}
	// Root metrics: unlabeled, same lines the golden test pins.
	_, body = httpGet(t, base+"/metrics")
	if !strings.Contains(body, "syndog_periods_total 30\n") || strings.Contains(body, "{agent=") {
		t.Fatalf("single metrics:\n%s", body)
	}
	// Root reports, summaries and sources still serve.
	if code, body := httpGet(t, base+"/reports"); code != http.StatusOK || !strings.HasPrefix(body, "[") {
		t.Fatalf("reports: %d %s", code, body)
	}
	if code, body := httpGet(t, base+"/summaries"); code != http.StatusOK || !strings.Contains(body, `"monitor":"only"`) {
		t.Fatalf("summaries: %d %s", code, body)
	}
	if code, _ := httpGet(t, base+"/sources"); code != http.StatusOK {
		t.Fatalf("sources: %d", code)
	}
	if err := shutdown(); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestReloadCompatibleLive is the headline reload test: on a live
// two-agent daemon, a compatible parameter change (threshold, plus a
// rotated input file) applies to one agent with its full state carried
// — visibly changing its behavior — while the other agent is not
// touched at all and its final state file stays byte-identical to an
// uninterrupted run's.
func TestReloadCompatibleLive(t *testing.T) {
	dir := t.TempDir()
	full := testTrace(t, true)
	t0 := core.DefaultObservationPeriod
	fullPath := saveTestTrace(t, dir, true)
	truncPath := filepath.Join(dir, "trunc.trace")
	if err := trace.Save(truncPath, truncated(full, 20*t0)); err != nil {
		t.Fatal(err)
	}

	// Control: an uninterrupted single run of agent "a"'s spec.
	ctrlState := filepath.Join(dir, "ctrl.json")
	ctrl, _, err := BuildAgent(AgentSpec{Name: "ctrl", Input: fullPath, State: ctrlState}, BuildEnv{ProcName: "syndogd", Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SaveState(ctrlState); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
	ctrlBytes, err := os.ReadFile(ctrlState)
	if err != nil {
		t.Fatal(err)
	}

	// Supervised pair: "a" must stay untouched; "b" starts with a
	// threshold too high to ever alarm, over the first 20 periods only.
	aState := filepath.Join(dir, "a.json")
	bState := filepath.Join(dir, "b.json")
	specA := AgentSpec{Name: "a", Input: fullPath, State: aState}
	specB := AgentSpec{Name: "b", Input: truncPath, State: bState, Threshold: 1000}
	var log syncBuf
	s, err := NewSupervisor([]AgentSpec{specA, specB}, SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	waitReplayDone(t, base, "a")
	stB := waitReplayDone(t, base, "b")
	if stB.Alarmed || stB.Periods != 20 {
		t.Fatalf("pre-reload b: %+v", stB)
	}
	aGen := s.get("a").gen
	aDaemon := s.get("a").d

	// Reload: b's capture rotates to the full trace and its threshold
	// drops to the default — a compatible change, applied live, state
	// carried. The CUSUM evidence accumulated under threshold 1000 now
	// crosses the default threshold: behavior visibly changes without
	// a process restart.
	specB2 := specB
	specB2.Input = fullPath
	specB2.Threshold = 0 // default 1.05
	code, body := httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{specA, specB2}))
	if code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	res := decodeResults(t, body)
	if res["a"].Action != "unchanged" || res["b"].Action != "updated" {
		t.Fatalf("reload results: %s", body)
	}

	stB = waitReplayDone(t, base, "b")
	if stB.Periods != 30 || stB.ResumeOffset != 20 {
		t.Fatalf("post-reload b: %+v", stB)
	}
	if !stB.Alarmed || stB.AlarmPeriod < 20 {
		t.Fatalf("reload did not change b's behavior: %+v", stB)
	}

	// Agent a was not touched: same daemon, same generation.
	if s.get("a").gen != aGen || s.get("a").d != aDaemon {
		t.Fatal("untouched agent was rebuilt")
	}
	code, body = httpGet(t, base+"/agents")
	var sums []AgentSummary
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatalf("%d %s: %v", code, body, err)
	}
	for _, sum := range sums {
		if sum.Name == "b" && (sum.Generation != 2 || sum.LastAction != ActionMigrated) {
			t.Fatalf("b summary: %+v", sum)
		}
	}

	if err := shutdown(); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown: %v", err)
	}

	// The untouched agent's shutdown state file is byte-identical to
	// the uninterrupted control run — reloads of b cannot perturb a.
	aBytes, err := os.ReadFile(aState)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aBytes, ctrlBytes) {
		t.Fatal("untouched agent state differs from uninterrupted run")
	}

	// And resuming a from that file is still a clean resume.
	agent, _, act, err := LoadOrNewState(aState, core.Config{}, nil, PolicyError)
	if err != nil || act != ActionResumed || len(agent.Reports()) != 30 {
		t.Fatalf("restart after reload: action %s err %v", act, err)
	}
}

// TestReloadIncompatiblePolicy pins the migrate-or-reset matrix over a
// live daemon: an incompatible change (t0) is refused under the
// default policy, carries the scaled baseline under migrate, and
// starts over under reset.
func TestReloadIncompatiblePolicy(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	spec := AgentSpec{Name: "x", Input: in, State: filepath.Join(dir, "x.json")}
	var log syncBuf
	s, err := NewSupervisor([]AgentSpec{spec}, SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	defer shutdown()
	waitReplayDone(t, base, "x")
	kBar := s.get("x").d.Status().KBar

	// Default policy: refused, agent untouched.
	slow := spec
	slow.T0 = Duration(40 * time.Second)
	code, body := httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{slow}))
	if code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	res := decodeResults(t, body)
	if res["x"].Action != "error" || !strings.Contains(res["x"].Detail, "onMismatch") {
		t.Fatalf("default policy result: %+v", res["x"])
	}
	if s.get("x").gen != 1 {
		t.Fatal("refused reload still rebuilt the agent")
	}

	// Migrate: K̄ carried (scaled 20s -> 40s), history restarted.
	slow.OnMismatch = PolicyMigrate
	_, body = httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{slow}))
	res = decodeResults(t, body)
	if res["x"].Action != "migrated" {
		t.Fatalf("migrate result: %+v", res["x"])
	}
	st := waitReplayDone(t, base, "x")
	if st.TotalPeriods != 15 || st.T0 != 40*time.Second {
		t.Fatalf("post-migrate: %+v", st)
	}
	mig := s.get("x").d
	if got := mig.agent.Snapshot().KBarPrimed; !got {
		t.Fatal("migrated baseline not primed")
	}
	// The migrated agent replayed the whole trace under t0=40s from a
	// K̄ seeded at 2x the old value; sanity-check the daemon came back
	// with a plausible baseline rather than zero.
	if st.KBar == 0 {
		t.Fatal("migrated run lost its baseline")
	}

	// Reset: start over entirely (change t0 back, policy reset).
	back := spec
	back.OnMismatch = PolicyReset
	_, body = httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{back}))
	res = decodeResults(t, body)
	if res["x"].Action != "reset" {
		t.Fatalf("reset result: %+v", res["x"])
	}
	st = waitReplayDone(t, base, "x")
	if st.TotalPeriods != 30 || st.ResumeOffset != 0 {
		t.Fatalf("post-reset: %+v", st)
	}
	_ = kBar
}

// TestReloadAddRemove: reloads can start brand-new agents and stop
// (final-saving) removed ones.
func TestReloadAddRemove(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	specA := AgentSpec{Name: "a", Input: in}
	specB := AgentSpec{Name: "b", Input: in, State: filepath.Join(dir, "b.json")}
	var log syncBuf
	s, err := NewSupervisor([]AgentSpec{specA, specB}, SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	defer shutdown()
	waitReplayDone(t, base, "b")

	specC := AgentSpec{Name: "c", Input: in}
	_, body := httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{specA, specC}))
	res := decodeResults(t, body)
	if res["c"].Action != "started" || res["b"].Action != "stopped" || res["a"].Action != "unchanged" {
		t.Fatalf("results: %s", body)
	}
	// b's shutdown snapshot was written when it was removed.
	if _, err := os.Stat(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}
	waitReplayDone(t, base, "c")
	if code, _ := httpGet(t, base+"/agents/b/status"); code != http.StatusNotFound {
		t.Fatalf("removed agent still routed: %d", code)
	}

	// A reload with a broken new agent build is reported per-agent and
	// leaves the rest alone.
	specD := AgentSpec{Name: "d", Input: filepath.Join(dir, "missing.trace")}
	_, body = httpPost(t, base+"/reload", reloadBody(t, []AgentSpec{specA, specC, specD}))
	res = decodeResults(t, body)
	if res["d"].Action != "error" || res["a"].Action != "unchanged" {
		t.Fatalf("results: %s", body)
	}

	// Spec-level validation failures reject the whole reload.
	if code, _ := httpPost(t, base+"/reload", `{"agents":[{"name":"a"}]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid reload accepted: %d", code)
	}
	if code, _ := httpPost(t, base+"/reload", `not json`); code != http.StatusBadRequest {
		t.Fatalf("garbage reload accepted: %d", code)
	}
	// Empty body without -config is a 400, not a crash.
	if code, _ := httpPost(t, base+"/reload", ""); code != http.StatusBadRequest {
		t.Fatalf("empty reload accepted: %d", code)
	}
}

// TestReloadFromConfigFile: an empty-body POST /reload re-reads the
// -config file (the HTTP face of SIGHUP).
func TestReloadFromConfigFile(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	cfgPath := filepath.Join(dir, "agents.json")
	writeCfg := func(specs []AgentSpec) {
		t.Helper()
		b, err := json.MarshalIndent(specFile{Agents: specs}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	specA := AgentSpec{Name: "a", Input: in}
	writeCfg([]AgentSpec{specA})
	specs, err := LoadSpecs(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	var log syncBuf
	s, err := NewSupervisor(specs, SupervisorOptions{ProcName: "syndogd", Log: &log, ConfigPath: cfgPath})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	defer shutdown()
	waitReplayDone(t, base, "a")

	writeCfg([]AgentSpec{specA, {Name: "b", Input: in}})
	_, body := httpPost(t, base+"/reload", "")
	res := decodeResults(t, body)
	if res["a"].Action != "unchanged" || res["b"].Action != "started" {
		t.Fatalf("config reload: %s", body)
	}
	waitReplayDone(t, base, "b")

	// ReloadFromConfig is the same path (SIGHUP handler).
	writeCfg([]AgentSpec{specA})
	rs, err := s.ReloadFromConfig()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.Name == "b" && r.Action == "stopped" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SIGHUP reload results: %+v", rs)
	}
}

// TestDebugBundle: /debug/bundle streams a tar.gz with config and
// per-agent diagnostics.
func TestDebugBundle(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	specs := []AgentSpec{
		{Name: "a", Input: in, State: filepath.Join(dir, "a.json"), TrackSources: true, KeyBits: 8, MaxSources: 64},
		{Name: "b", Input: in, Detector: "static-threshold"},
	}
	var log syncBuf
	s, err := NewSupervisor(specs, SupervisorOptions{ProcName: "syndogd", Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := startSupervisor(t, s, &log)
	defer shutdown()
	waitReplayDone(t, base, "a")
	waitReplayDone(t, base, "b")

	resp, err := http.Get(base + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/gzip" {
		t.Fatalf("bundle response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		entries[hdr.Name] = data
	}
	for _, want := range []string{
		"bundle/config.json",
		"bundle/agents/a/status.json",
		"bundle/agents/a/reports.json",
		"bundle/agents/a/sources.json",
		"bundle/agents/a/metrics.txt",
		"bundle/agents/a/state.json", // cusum agent: snapshot included
		"bundle/agents/b/status.json",
		"bundle/agents/b/metrics.txt",
	} {
		if _, ok := entries[want]; !ok {
			t.Fatalf("bundle missing %s; have %v", want, mapKeys(entries))
		}
	}
	// The baseline agent carries no snapshot state.
	if _, ok := entries["bundle/agents/b/state.json"]; ok {
		t.Fatal("baseline agent has state.json in bundle")
	}
	var st Status
	if err := json.Unmarshal(entries["bundle/agents/a/status.json"], &st); err != nil {
		t.Fatal(err)
	}
	if !st.Alarmed || st.Periods != 30 {
		t.Fatalf("bundle status: %+v", st)
	}
	if !bytes.Contains(entries["bundle/agents/a/metrics.txt"], []byte("syndog_periods_total 30")) {
		t.Fatal("bundle metrics incomplete")
	}
	var cfg specFile
	if err := json.Unmarshal(entries["bundle/config.json"], &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Agents) != 2 || cfg.Agents[0].Name != "a" {
		t.Fatalf("bundle config: %+v", cfg)
	}
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSupervisorBuildFailure: one bad agent fails the whole startup,
// and already-built agents are released.
func TestSupervisorBuildFailure(t *testing.T) {
	dir := t.TempDir()
	in := saveTestTrace(t, dir, true)
	_, err := NewSupervisor([]AgentSpec{
		{Name: "ok", Input: in},
		{Name: "bad", Input: filepath.Join(dir, "missing.trace")},
	}, SupervisorOptions{Log: io.Discard})
	if err == nil {
		t.Fatal("supervisor built despite missing input")
	}
	if _, err := NewSupervisor(nil, SupervisorOptions{Log: io.Discard}); err == nil {
		t.Fatal("supervisor built with no agents")
	}
	if _, err := NewSupervisor([]AgentSpec{
		{Name: "dup", Input: in}, {Name: "dup", Input: in},
	}, SupervisorOptions{Log: io.Discard}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names: %v", err)
	}
}
