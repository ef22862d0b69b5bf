package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/summary"
)

// SupervisorOptions configures a Supervisor beyond its agent specs.
type SupervisorOptions struct {
	// ProcName prefixes log lines and notices (default "daemon").
	ProcName string
	// Log receives the banner, resume/migration notices and per-agent
	// checkpoint messages (default os.Stderr).
	Log io.Writer
	// Speed is the replay pacing shared by every agent (0 = instant).
	Speed float64
	// ConfigPath, when set, is re-read on an empty-body POST /reload
	// (and by ReloadFromConfig, which cmd/syndogd wires to SIGHUP).
	ConfigPath string
	// Summary shapes every agent's exported summaries: the censoring
	// threshold λ and digest budget applied to /summaries and the
	// uplink. Local state (reports, metrics, snapshots) always keeps
	// full fidelity.
	Summary summary.Config
	// Uplink, when non-nil, streams every agent's closed-period
	// summaries to a fusion coordinator, each stamped with its spec
	// name. The caller owns (and closes) the uplink; the supervisor
	// only exposes its delivery counters on /metrics.
	Uplink *summary.Uplink
	// Pprof mounts net/http/pprof under /debug/pprof on the shared mux.
	// Off by default: profiling endpoints are a diagnostic surface the
	// operator must ask for.
	Pprof bool
}

// managedAgent is one supervised daemon plus its lifecycle state. The
// daemon itself is immutable once built; reloads build a replacement
// and swap the pointer, so readers holding the old one stay safe.
type managedAgent struct {
	spec   AgentSpec
	d      *Daemon
	h      http.Handler // cached d.Handler(); one mux per build
	gen    int          // bumped on every rebuild
	action StateAction  // how its state was obtained at the last build

	cancel  context.CancelFunc
	done    chan struct{}
	running bool

	errMu  sync.Mutex
	runErr error // non-cancel replay error, set when the run goroutine exits
}

func (ma *managedAgent) setErr(err error) {
	ma.errMu.Lock()
	ma.runErr = err
	ma.errMu.Unlock()
}

func (ma *managedAgent) err() error {
	ma.errMu.Lock()
	defer ma.errMu.Unlock()
	return ma.runErr
}

// Supervisor runs N agents in one process behind one HTTP plane: each
// agent replays its own capture with its own detector and state file,
// while /agents/{name}/... routes to per-agent endpoints, the root
// endpoints aggregate, and Reload applies a new spec set to the
// running process.
type Supervisor struct {
	opts SupervisorOptions

	mu     sync.Mutex
	agents map[string]*managedAgent
	order  []string // insertion order: stable listings and metrics

	reloadMu sync.Mutex // serializes Reload; never held with mu

	// reloads is the ring-buffered audit history served by GET
	// /reloads: newest last, capped at reloadHistoryCap events.
	reloads   []ReloadEvent
	reloadSeq int // total reloads ever applied (ring positions survive eviction)

	runCtx  context.Context // set by Run; agents started later inherit it
	started bool
	exitCh  chan struct{} // poked (cap 1) whenever an agent run exits
}

// env returns the build environment shared by every agent build and
// rebuild: process naming/logging plus the summary-export shape and
// the optional fusion uplink.
func (s *Supervisor) env() BuildEnv {
	return BuildEnv{
		ProcName: s.opts.ProcName,
		Log:      s.opts.Log,
		Summary:  s.opts.Summary,
		Uplink:   s.opts.Uplink,
	}
}

// NewSupervisor validates specs and builds every agent — strictly: one
// bad spec, unreadable input or refused snapshot fails the whole
// startup, exactly like the single-agent daemon. Replay does not start
// until Run.
func NewSupervisor(specs []AgentSpec, opts SupervisorOptions) (*Supervisor, error) {
	if opts.ProcName == "" {
		opts.ProcName = "daemon"
	}
	if opts.Log == nil {
		opts.Log = os.Stderr
	}
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	s := &Supervisor{
		opts:   opts,
		agents: make(map[string]*managedAgent, len(specs)),
		exitCh: make(chan struct{}, 1),
	}
	for _, sp := range specs {
		d, act, err := BuildAgent(sp, s.env())
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.agents[sp.Name] = &managedAgent{spec: sp, d: d, h: d.Handler(), gen: 1, action: act}
		s.order = append(s.order, sp.Name)
	}
	return s, nil
}

// validateSpecs checks every spec and name uniqueness.
func validateSpecs(specs []AgentSpec) error {
	if len(specs) == 0 {
		return errors.New("no agents defined")
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return err
		}
		if seen[sp.Name] {
			return fmt.Errorf("duplicate agent name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	return nil
}

// closeAll releases every agent's source (build-failure cleanup and
// shutdown).
func (s *Supervisor) closeAll() {
	for _, ma := range s.agents {
		_ = ma.d.Close()
	}
}

// snapshot returns the current agents in listing order.
func (s *Supervisor) snapshot() []*managedAgent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*managedAgent, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.agents[name])
	}
	return out
}

func (s *Supervisor) get(name string) *managedAgent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agents[name]
}

// agentRef is a race-free view of one agent for HTTP handlers: the
// fields a handler needs, copied under the supervisor lock so a
// concurrent reload swap never tears them.
type agentRef struct {
	name string
	d    *Daemon
	h    http.Handler
}

func (s *Supervisor) refs() []agentRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]agentRef, 0, len(s.order))
	for _, name := range s.order {
		ma := s.agents[name]
		out = append(out, agentRef{name: name, d: ma.d, h: ma.h})
	}
	return out
}

// startAgent launches ma's replay under the supervisor's run context.
func (s *Supervisor) startAgent(ma *managedAgent) {
	s.mu.Lock()
	actx, cancel := context.WithCancel(s.runCtx)
	ma.cancel = cancel
	ma.done = make(chan struct{})
	ma.running = true
	s.mu.Unlock()
	go func() {
		err := ma.d.Run(actx, s.opts.Speed)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			ma.setErr(err)
			fmt.Fprintf(s.opts.Log, "%s: agent %s: replay: %v\n", s.opts.ProcName, ma.spec.Name, err)
		}
		close(ma.done)
		select {
		case s.exitCh <- struct{}{}:
		default:
		}
	}()
}

// stopAgent cancels ma's replay and waits for it to settle. Safe on an
// agent that was never started or already finished.
func (s *Supervisor) stopAgent(ma *managedAgent) {
	s.mu.Lock()
	cancel, done := ma.cancel, ma.done
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	s.mu.Lock()
	ma.running = false
	s.mu.Unlock()
}

// finalSave writes ma's shutdown snapshot when it persists state.
func (s *Supervisor) finalSave(ma *managedAgent) error {
	if ma.spec.State == "" || !ma.spec.cusum() {
		return nil
	}
	return ma.d.SaveState(ma.spec.State)
}

// Run starts every agent's replay and serves the shared HTTP plane on
// listen, returning when ctx is cancelled (agents get final
// snapshots), the listener fails, or every agent has finished and at
// least one failed — the single-agent exit semantics, generalized.
func (s *Supervisor) Run(ctx context.Context, listen string) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.runCtx = ctx
	s.started = true
	agents := make([]*managedAgent, 0, len(s.order))
	for _, name := range s.order {
		agents = append(agents, s.agents[name])
	}
	s.mu.Unlock()

	s.banner(ln.Addr())
	for _, ma := range agents {
		s.startAgent(ma)
	}

	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	shutdown := func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}
	finish := func() error {
		// Reloads are done (the server is down or going down); settle
		// every agent and persist final snapshots.
		s.reloadMu.Lock()
		defer s.reloadMu.Unlock()
		var firstErr error
		for _, ma := range s.snapshot() {
			s.stopAgent(ma)
			if err := s.finalSave(ma); err != nil && firstErr == nil {
				firstErr = err
			}
			_ = ma.d.Close()
		}
		return firstErr
	}

	for {
		select {
		case <-ctx.Done():
			shutdown()
			if err := finish(); err != nil {
				return err
			}
			return ctx.Err()
		case err := <-serveErr:
			_ = finish()
			return err
		case <-s.exitCh:
			// An agent's replay exited. If every agent has now settled
			// and any failed, shut the process down non-zero — so a
			// one-agent daemon exits on its agent's failure. While any
			// agent still runs (or all succeeded), keep serving.
			var failed error
			alive := false
			for _, ma := range s.snapshot() {
				s.mu.Lock()
				done := ma.done
				s.mu.Unlock()
				select {
				case <-done:
					if err := ma.err(); err != nil && failed == nil {
						failed = err
					}
				default:
					alive = true
				}
			}
			if failed != nil && !alive {
				shutdown()
				if err := finish(); err != nil {
					return err
				}
				return fmt.Errorf("replay: %w", failed)
			}
		}
	}
}

// banner prints the startup line. The single-agent form is unchanged
// from the pre-supervisor daemon (operators and the e2e tests parse
// it); multiple agents get a summary line.
func (s *Supervisor) banner(addr net.Addr) {
	agents := s.snapshot()
	if len(agents) == 1 {
		d := agents[0].d
		if d.srcRecords >= 0 {
			fmt.Fprintf(s.opts.Log, "%s: serving on http://%s (trace %q, %d records, %d/%d periods done)\n",
				s.opts.ProcName, addr, d.srcName, d.srcRecords, d.resumeOffset, d.totalPeriods)
		} else {
			fmt.Fprintf(s.opts.Log, "%s: serving on http://%s (trace %q, streaming, %d/%d periods done)\n",
				s.opts.ProcName, addr, d.srcName, d.resumeOffset, d.totalPeriods)
		}
		return
	}
	names := make([]string, len(agents))
	for i, ma := range agents {
		names[i] = ma.spec.Name
	}
	fmt.Fprintf(s.opts.Log, "%s: serving on http://%s (%d agents: %s)\n",
		s.opts.ProcName, addr, len(agents), strings.Join(names, ", "))
}

// ReloadResult is one agent's outcome from a Reload.
type ReloadResult struct {
	Name string `json:"name"`
	// Action: unchanged, updated (compatible change applied with full
	// state carried), migrated, reset, started, stopped, or error.
	Action string `json:"action"`
	Detail string `json:"detail,omitempty"`
}

// reloadHistoryCap bounds the /reloads audit ring. 64 reloads of
// history costs a few kilobytes and covers weeks of operation; older
// events age out, their positions preserved by Seq.
const reloadHistoryCap = 64

// ReloadEvent is one /reloads audit entry: when a reload was applied,
// a compact summary of the spec diff it carried, and every agent's
// outcome — the durable form of the per-reload log lines.
type ReloadEvent struct {
	// Seq numbers reloads from 1 across the process lifetime; it keeps
	// counting after older events age out of the ring.
	Seq int `json:"seq"`
	// At is when the reload finished applying (UTC).
	At time.Time `json:"at"`
	// Diff summarizes the spec change by outcome, e.g.
	// "2 unchanged, 1 updated, 1 started".
	Diff string `json:"diff"`
	// Results is every agent's outcome, in application order.
	Results []ReloadResult `json:"results"`
}

// recordReload appends one audit entry to the ring.
func (s *Supervisor) recordReload(results []ReloadResult) {
	counts := make(map[string]int)
	for _, r := range results {
		counts[r.Action]++
	}
	var parts []string
	for _, a := range []string{"unchanged", "updated", "migrated", "reset", "started", "stopped", "error"} {
		if n := counts[a]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, a))
		}
	}
	s.mu.Lock()
	s.reloadSeq++
	s.reloads = append(s.reloads, ReloadEvent{
		Seq:     s.reloadSeq,
		At:      time.Now().UTC(),
		Diff:    strings.Join(parts, ", "),
		Results: slices.Clone(results),
	})
	if len(s.reloads) > reloadHistoryCap {
		s.reloads = slices.Clone(s.reloads[len(s.reloads)-reloadHistoryCap:])
	}
	s.mu.Unlock()
}

// ReloadHistory returns the retained reload audit events, oldest
// first.
func (s *Supervisor) ReloadHistory() []ReloadEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.reloads)
}

// compatibleChange reports whether the old→new spec change can be
// applied with the full detector state carried: same detector, same
// observation period, and no keyed re-keying or tracking loss.
// Everything else — alpha, a, N, max-sources, checkpoint interval,
// state path, input file, enabling tracking — is compatible.
func compatibleChange(oldSpec, newSpec AgentSpec) bool {
	o, n := oldSpec.effective(), newSpec.effective()
	switch {
	case o.Detector != n.Detector:
		return false
	case o.T0 != n.T0:
		return false
	case o.TrackSources && !n.TrackSources:
		return false
	case o.TrackSources && n.TrackSources && o.KeyBits != n.KeyBits:
		return false
	}
	return true
}

// Reload applies a new spec set to the running supervisor:
//
//   - Agents whose effective spec is unchanged are not touched at all —
//     their replay, daemon and state keep running undisturbed (their
//     on-disk snapshots stay byte-identical).
//   - Compatible changes (alpha/a/N, max-sources, checkpoint interval,
//     state path, input) stop the agent, carry its full live state
//     through MigrateState, and restart it under the new parameters.
//   - Incompatible changes (t0, detector, key bits, disabling
//     tracking) follow the new spec's OnMismatch policy: error leaves
//     the agent running untouched; migrate carries what MigrateState
//     can; reset starts fresh.
//   - Specs with new names start new agents; running agents missing
//     from the new set are stopped, final-saved and removed.
//
// Spec-level validation failures reject the whole reload before any
// agent is disturbed. Per-agent build failures surface as "error"
// results; the reload attempts to restart such an agent under its old
// spec so one typo cannot silently kill a healthy detector.
func (s *Supervisor) Reload(specs []AgentSpec) ([]ReloadResult, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil, errors.New("supervisor not running")
	}
	s.mu.Unlock()

	results := make([]ReloadResult, 0, len(specs))
	inNew := make(map[string]bool, len(specs))
	for _, sp := range specs {
		inNew[sp.Name] = true
		ma := s.get(sp.Name)
		switch {
		case ma == nil:
			results = append(results, s.reloadAdd(sp))
		default:
			results = append(results, s.reloadApply(ma, sp))
		}
	}
	// Stop agents the new set no longer mentions.
	for _, ma := range s.snapshot() {
		if inNew[ma.spec.Name] {
			continue
		}
		s.stopAgent(ma)
		res := ReloadResult{Name: ma.spec.Name, Action: "stopped"}
		if err := s.finalSave(ma); err != nil {
			res.Detail = fmt.Sprintf("final snapshot: %v", err)
		}
		_ = ma.d.Close()
		s.mu.Lock()
		delete(s.agents, ma.spec.Name)
		s.order = slices.DeleteFunc(s.order, func(n string) bool { return n == ma.spec.Name })
		s.mu.Unlock()
		results = append(results, res)
	}
	for _, r := range results {
		fmt.Fprintf(s.opts.Log, "%s: reload: agent %s: %s%s\n", s.opts.ProcName, r.Name, r.Action,
			map[bool]string{true: " (" + r.Detail + ")", false: ""}[r.Detail != ""])
	}
	s.recordReload(results)
	return results, nil
}

// reloadAdd starts a brand-new agent from sp.
func (s *Supervisor) reloadAdd(sp AgentSpec) ReloadResult {
	d, act, err := BuildAgent(sp, s.env())
	if err != nil {
		return ReloadResult{Name: sp.Name, Action: "error", Detail: err.Error()}
	}
	ma := &managedAgent{spec: sp, d: d, h: d.Handler(), gen: 1, action: act}
	s.mu.Lock()
	s.agents[sp.Name] = ma
	s.order = append(s.order, sp.Name)
	s.mu.Unlock()
	s.startAgent(ma)
	return ReloadResult{Name: sp.Name, Action: "started", Detail: string(act)}
}

// reloadApply applies a changed spec to a running agent.
func (s *Supervisor) reloadApply(ma *managedAgent, sp AgentSpec) ReloadResult {
	if ma.spec.effective() == sp.effective() {
		// Same effective configuration: the agent is untouched. The
		// spec is still adopted — OnMismatch (policy, not config) may
		// have changed and should govern future reloads.
		s.mu.Lock()
		ma.spec = sp
		s.mu.Unlock()
		return ReloadResult{Name: sp.Name, Action: "unchanged"}
	}
	compatible := compatibleChange(ma.spec, sp)
	if !compatible && sp.policy() == PolicyError {
		return ReloadResult{Name: sp.Name, Action: "error",
			Detail: "incompatible change (t0, detector, key bits or tracking) needs onMismatch migrate or reset"}
	}

	// Stop the old replay and capture its live state — fresher than the
	// last on-disk checkpoint.
	s.stopAgent(ma)
	var st *State
	if ma.spec.cusum() {
		if v, err := ma.d.State(); err == nil {
			st = &v
		}
	}
	_ = ma.d.Close()

	d2, err := s.rebuild(sp, st, compatible)
	if err != nil {
		// The new spec does not build (bad input path, trace shorter
		// than the carried history, ...). Put the old agent back from
		// its captured state so a typo never kills a healthy detector.
		detail := err.Error()
		if restoreErr := s.revive(ma, st); restoreErr != nil {
			return ReloadResult{Name: sp.Name, Action: "error",
				Detail: fmt.Sprintf("%v; restoring previous spec also failed: %v (agent stopped)", detail, restoreErr)}
		}
		return ReloadResult{Name: sp.Name, Action: "error",
			Detail: detail + "; previous spec kept running"}
	}

	resAction, action := "updated", ActionMigrated
	switch {
	case st == nil || !sp.cusum():
		// Baselines carry no state across a rebuild, into or out of.
		resAction, action = "reset", ActionReset
	case !compatible && sp.policy() == PolicyReset:
		resAction, action = "reset", ActionReset
	case !compatible:
		resAction, action = "migrated", ActionMigrated
	}
	s.swap(ma, sp, d2, action)
	// Persist the rewritten state immediately: a crash right after a
	// reload must come back under the new parameters.
	if newMa := s.get(sp.Name); newMa != nil {
		if err := s.finalSave(newMa); err != nil {
			fmt.Fprintf(s.opts.Log, "%s: reload: agent %s: snapshot: %v\n", s.opts.ProcName, sp.Name, err)
		}
	}
	return ReloadResult{Name: sp.Name, Action: resAction}
}

// rebuild constructs the replacement daemon for a changed spec. st is
// the captured live state (nil for baselines). Compatible changes and
// PolicyMigrate carry state through MigrateState; everything else
// starts the detector fresh — deliberately without consulting the
// on-disk snapshot, which the reset just invalidated.
func (s *Supervisor) rebuild(sp AgentSpec, st *State, compatible bool) (*Daemon, error) {
	if st != nil && (compatible || sp.policy() == PolicyMigrate) {
		migrated := MigrateState(*st, sp.coreConfig(), sp.trackConfig())
		st = &migrated
	} else {
		st = nil
	}
	det, tracker, err := newDetector(sp, st)
	if err != nil {
		return nil, err
	}
	return assemble(sp, det, tracker, s.env())
}

// revive restarts ma under its old spec after a failed rebuild, from
// the state captured before the attempt.
func (s *Supervisor) revive(ma *managedAgent, st *State) error {
	det, tracker, err := newDetector(ma.spec, st)
	var d *Daemon
	if err == nil {
		d, err = assemble(ma.spec, det, tracker, s.env())
	}
	if err != nil {
		s.mu.Lock()
		delete(s.agents, ma.spec.Name)
		s.order = slices.DeleteFunc(s.order, func(n string) bool { return n == ma.spec.Name })
		s.mu.Unlock()
		return err
	}
	s.swap(ma, ma.spec, d, ma.action)
	return nil
}

// swap replaces ma's daemon with d under spec and restarts its replay.
func (s *Supervisor) swap(ma *managedAgent, sp AgentSpec, d *Daemon, action StateAction) {
	s.mu.Lock()
	ma.spec = sp
	ma.d = d
	ma.h = d.Handler()
	ma.gen++
	ma.action = action
	ma.setErr(nil)
	s.mu.Unlock()
	s.startAgent(ma)
}

// ReloadFromConfig re-reads ConfigPath and applies it — the SIGHUP
// handler.
func (s *Supervisor) ReloadFromConfig() ([]ReloadResult, error) {
	if s.opts.ConfigPath == "" {
		return nil, errors.New("reload: no -config file to re-read")
	}
	specs, err := LoadSpecs(s.opts.ConfigPath)
	if err != nil {
		return nil, err
	}
	return s.Reload(specs)
}

// Specs returns the current effective spec set (reload-adopted), in
// listing order.
func (s *Supervisor) Specs() []AgentSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AgentSpec, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.agents[name].spec)
	}
	return out
}

// AgentSummary is one row of the /agents listing.
type AgentSummary struct {
	Name       string      `json:"name"`
	Detector   string      `json:"detector"`
	Input      string      `json:"input"`
	Generation int         `json:"generation"`
	LastAction StateAction `json:"lastStateAction"`
	Running    bool        `json:"running"`
	Status     Status      `json:"status"`
}

func (s *Supervisor) summaries() []AgentSummary {
	agents := s.snapshot()
	out := make([]AgentSummary, 0, len(agents))
	for _, ma := range agents {
		s.mu.Lock()
		sum := AgentSummary{
			Name:       ma.spec.Name,
			Detector:   ma.spec.effective().Detector,
			Input:      ma.spec.Input,
			Generation: ma.gen,
			LastAction: ma.action,
			Running:    ma.running,
		}
		d := ma.d
		s.mu.Unlock()
		sum.Status = d.Status()
		out = append(out, sum)
	}
	return out
}

// Handler builds the shared HTTP plane:
//
//	GET  /agents                  -> JSON agent summaries
//	ANY  /agents/{name}/{rest}    -> that agent's daemon endpoints
//	GET  /healthz                 -> aggregate health (503 lists failed agents)
//	GET  /status                  -> single agent: its Status (unchanged shape);
//	                                 multiple: {"agents": {name: Status}}
//	GET  /metrics                 -> single agent: unchanged exposition;
//	                                 multiple: {agent="name"}-labeled samples
//	GET  /reports, /summaries, /sources -> single agent only (404 otherwise)
//	POST /reload                  -> apply specs (JSON body, or re-read -config
//	                                 on an empty body); JSON results
//	GET  /reloads                 -> ring-buffered reload audit history
//	GET  /debug/bundle            -> tar.gz diagnostic bundle
//	GET  /debug/pprof/...         -> net/http/pprof (only with Pprof set)
func (s *Supervisor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /agents", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.summaries())
	})
	proxy := func(w http.ResponseWriter, r *http.Request, rest string) {
		name := r.PathValue("name")
		var h http.Handler
		for _, a := range s.refs() {
			if a.name == name {
				h = a.h
				break
			}
		}
		if h == nil {
			http.Error(w, "no such agent", http.StatusNotFound)
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/" + rest
		h.ServeHTTP(w, r2)
	}
	mux.HandleFunc("/agents/{name}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		proxy(w, r, r.PathValue("rest"))
	})
	mux.HandleFunc("GET /agents/{name}", func(w http.ResponseWriter, r *http.Request) {
		proxy(w, r, "status")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		var failed []string
		for _, a := range s.refs() {
			if st := a.d.Status(); st.ReplayError != "" {
				failed = append(failed, fmt.Sprintf("%s: %s", a.name, st.ReplayError))
			}
		}
		if len(failed) > 0 {
			http.Error(w, "replay failed: "+strings.Join(failed, "; "), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		agents := s.refs()
		if len(agents) == 1 {
			_ = json.NewEncoder(w).Encode(agents[0].d.Status())
			return
		}
		statuses := make(map[string]Status, len(agents))
		for _, a := range agents {
			statuses[a.name] = a.d.Status()
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"agents": statuses})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		agents := s.refs()
		if len(agents) == 1 {
			writeMetrics(w, agents[0].d.Status())
		} else {
			sts := make([]agentStatus, len(agents))
			for i, a := range agents {
				sts[i] = agentStatus{Name: a.name, Status: a.d.Status()}
			}
			writeMetricsLabeled(w, sts)
		}
		// Process-wide uplink delivery counters, only when an uplink is
		// configured — the default exposition stays byte-identical.
		if u := s.opts.Uplink; u != nil {
			fmt.Fprintf(w, "# TYPE syndog_uplink_sent_total counter\nsyndog_uplink_sent_total %d\n", u.Sent())
			fmt.Fprintf(w, "# TYPE syndog_uplink_dropped_total counter\nsyndog_uplink_dropped_total %d\n", u.Dropped())
			fmt.Fprintf(w, "# TYPE syndog_uplink_failures_total counter\nsyndog_uplink_failures_total %d\n", u.Failures())
		}
	})
	mux.HandleFunc("GET /reloads", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.ReloadHistory())
	})
	single := func(w http.ResponseWriter, r *http.Request, rest string) {
		agents := s.refs()
		if len(agents) != 1 {
			http.Error(w, "multiple agents: use /agents/{name}/"+rest, http.StatusNotFound)
			return
		}
		agents[0].h.ServeHTTP(w, r)
	}
	mux.HandleFunc("GET /reports", func(w http.ResponseWriter, r *http.Request) {
		single(w, r, "reports")
	})
	mux.HandleFunc("GET /summaries", func(w http.ResponseWriter, r *http.Request) {
		single(w, r, "summaries")
	})
	mux.HandleFunc("GET /sources", func(w http.ResponseWriter, r *http.Request) {
		single(w, r, "sources")
	})
	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var specs []AgentSpec
		if len(strings.TrimSpace(string(body))) == 0 {
			if s.opts.ConfigPath == "" {
				http.Error(w, "empty body and no -config file to re-read", http.StatusBadRequest)
				return
			}
			if specs, err = LoadSpecs(s.opts.ConfigPath); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		} else if specs, err = ParseSpecs(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results, err := s.Reload(specs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(results)
	})
	mux.HandleFunc("GET /debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		s.serveBundle(w, r)
	})
	if s.opts.Pprof {
		// Profiling endpoints are opt-in (-pprof): a diagnostic surface
		// the operator must ask for, never on by default.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
