package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

// Policy says what to do when an agent's on-disk snapshot disagrees
// with its requested configuration in a way that cannot be applied in
// place (T0, key bits, detector, disabling tracking).
type Policy string

const (
	// PolicyError refuses the mismatch — the historical hard-error
	// behavior, and the default: silently dropping evidence is never
	// the default.
	PolicyError Policy = "error"
	// PolicyMigrate carries every portable piece of state across the
	// change (see MigrateState for the exact matrix) and resets only
	// what cannot be reinterpreted.
	PolicyMigrate Policy = "migrate"
	// PolicyReset discards the snapshot and starts fresh.
	PolicyReset Policy = "reset"
)

// ParsePolicy parses an on-mismatch policy name; "" means PolicyError.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyError:
		return PolicyError, nil
	case PolicyMigrate:
		return PolicyMigrate, nil
	case PolicyReset:
		return PolicyReset, nil
	}
	return "", fmt.Errorf("unknown on-mismatch policy %q (have error, migrate, reset)", s)
}

// StateAction reports how an agent's state was obtained when it was
// built or rebuilt: it is surfaced in reload results and startup
// notices so the operator always knows whether evidence was carried.
type StateAction string

const (
	// ActionFresh: no snapshot existed; the agent starts empty.
	ActionFresh StateAction = "fresh"
	// ActionResumed: the snapshot matched and was restored whole.
	ActionResumed StateAction = "resumed"
	// ActionMigrated: the snapshot was rewritten for a parameter
	// change; portable state was carried.
	ActionMigrated StateAction = "migrated"
	// ActionReset: the snapshot was discarded under PolicyReset.
	ActionReset StateAction = "reset"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("20s") and unmarshals either that form or raw nanoseconds, so config
// files stay hand-editable while remaining compatible with Go's default
// numeric encoding.
type Duration time.Duration

// MarshalJSON encodes the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("duration: want \"20s\" or nanoseconds, got %s", data)
	}
	*d = Duration(n)
	return nil
}

// AgentSpec describes one agent of a multi-agent daemon: which capture
// it watches, which detector with which parameters, and how its state
// persists. It is the unit of configuration for both the -agent flag
// and the -config file, and the unit of diffing for reloads.
type AgentSpec struct {
	// Name routes the agent's HTTP endpoints (/agents/{name}/...) and
	// labels its metrics. Letters, digits, '.', '_' and '-' only.
	Name string `json:"name"`
	// Input is the capture to replay — any format ingest.Open reads
	// (.trace/.bin, .csv, .pcap, tcpdump .txt/.dump, each
	// optionally .gz), streamed — or a live source: "live:IFACE"
	// (AF_PACKET on linux with the 'live' build tag) or
	// "live:pcap:PATH" (portable pcap byte-stream, file or FIFO).
	Input string `json:"input"`
	// Prefix is the stub prefix for pcap and live direction inference.
	Prefix string `json:"prefix,omitempty"`
	// Detector selects the decision rule ("" = syndog-cusum).
	Detector string `json:"detector,omitempty"`
	// T0, Alpha, Offset and Threshold are the detector parameters;
	// zero values take the core defaults (20s, 0.9, 0.35, 1.05).
	T0        Duration `json:"t0,omitempty"`
	Alpha     float64  `json:"alpha,omitempty"`
	Offset    float64  `json:"a,omitempty"`
	Threshold float64  `json:"N,omitempty"`
	// State is the agent's snapshot file; Checkpoint the periodic
	// snapshot interval (0 = only at shutdown; needs State).
	State      string   `json:"state,omitempty"`
	Checkpoint Duration `json:"checkpoint,omitempty"`
	// TrackSources enables the per-source attribution engine, keyed at
	// KeyBits with MaxSources states (zeros take sourcetrack defaults).
	TrackSources bool `json:"trackSources,omitempty"`
	KeyBits      int  `json:"keyBits,omitempty"`
	MaxSources   int  `json:"maxSources,omitempty"`
	// OnMismatch is the snapshot mismatch policy ("" = error). It is
	// execution policy, not detector configuration: changing it alone
	// never counts as a spec change.
	OnMismatch Policy `json:"onMismatch,omitempty"`
}

// cusum reports whether the spec runs the (stateful) CUSUM detector.
func (s AgentSpec) cusum() bool {
	return s.Detector == "" || s.Detector == "syndog-cusum"
}

// policy returns the effective mismatch policy.
func (s AgentSpec) policy() Policy {
	if s.OnMismatch == "" {
		return PolicyError
	}
	return s.OnMismatch
}

// coreConfig returns the aggregate detector configuration.
func (s AgentSpec) coreConfig() core.Config {
	return core.Config{
		T0:        time.Duration(s.T0),
		Alpha:     s.Alpha,
		Offset:    s.Offset,
		Threshold: s.Threshold,
	}
}

// trackConfig returns the keyed tracker configuration, nil when source
// tracking is off.
func (s AgentSpec) trackConfig() *sourcetrack.Config {
	if !s.TrackSources {
		return nil
	}
	return &sourcetrack.Config{
		KeyBits:    s.KeyBits,
		MaxSources: s.MaxSources,
		Agent:      s.coreConfig(),
	}
}

// validName reports whether name is usable in a URL path segment and a
// metric label without escaping.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate checks the spec without touching the filesystem, so a bad
// config file (or reload body) is rejected before any agent is
// disturbed. The error texts deliberately match the single-agent flag
// errors operators already know.
func (s AgentSpec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("agent name %q: need letters, digits, '.', '_' or '-'", s.Name)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("agent %q: %w", s.Name, fmt.Errorf(format, args...))
	}
	if s.Input == "" {
		return fail("missing input capture")
	}
	if !slices.Contains(ingest.DetectorNames(), s.Detector) && s.Detector != "" {
		return fail("unknown detector %q (have %s)", s.Detector, strings.Join(ingest.DetectorNames(), ", "))
	}
	if s.Checkpoint > 0 && s.State == "" {
		return fail("-checkpoint needs -state")
	}
	if s.State != "" && !s.cusum() {
		return fail("-state needs the syndog-cusum detector, not %q (baselines carry no snapshot state)", s.Detector)
	}
	if s.TrackSources && !s.cusum() {
		return fail("-track-sources needs the syndog-cusum detector, not %q", s.Detector)
	}
	if !s.TrackSources && (s.KeyBits != 0 || s.MaxSources != 0) {
		return fail("-key-bits/-max-sources need -track-sources")
	}
	if s.Prefix != "" {
		if _, err := netip.ParsePrefix(s.Prefix); err != nil {
			return fail("prefix: %v", err)
		}
	}
	if rest, ok := strings.CutPrefix(s.Input, "live:"); ok {
		if s.Prefix == "" {
			return fail("live input %s needs a stub prefix for direction inference", s.Input)
		}
		if path, isPcap := strings.CutPrefix(rest, "pcap:"); isPcap {
			if path == "" {
				return fail("live:pcap: needs a path (file or FIFO)")
			}
		} else if rest == "" {
			return fail("live: needs an interface name or pcap:PATH")
		}
	} else if strings.HasSuffix(s.Input, ".pcap") && s.Prefix == "" {
		return fail("trace: %s needs a stub prefix for direction inference", s.Input)
	}
	if _, err := ParsePolicy(string(s.OnMismatch)); err != nil {
		return fail("%v", err)
	}
	return nil
}

// effective returns the spec with every default applied and the
// mismatch policy cleared — the canonical form reloads diff. Two specs
// whose effective forms are equal describe the same running agent, so
// a reload leaves that agent completely untouched.
func (s AgentSpec) effective() AgentSpec {
	if s.Detector == "" {
		s.Detector = "syndog-cusum"
	}
	cfg := s.coreConfig().Normalized()
	s.T0 = Duration(cfg.T0)
	s.Alpha = cfg.Alpha
	s.Offset = cfg.Offset
	s.Threshold = cfg.Threshold
	if s.TrackSources {
		tc := s.trackConfig().Normalized()
		s.KeyBits, s.MaxSources = tc.KeyBits, tc.MaxSources
	} else {
		s.KeyBits, s.MaxSources = 0, 0
	}
	s.OnMismatch = ""
	return s
}

// specFile is the on-disk multi-agent configuration: one spec per
// agent. The top level is an object so future daemon-wide settings can
// join without breaking existing files.
type specFile struct {
	Agents []AgentSpec `json:"agents"`
}

// ParseSpecs decodes and validates a multi-agent configuration
// document: {"agents": [...]}. Names must be unique — they route HTTP
// and label metrics.
func ParseSpecs(data []byte) ([]AgentSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f specFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if len(f.Agents) == 0 {
		return nil, errors.New("config: no agents defined")
	}
	seen := make(map[string]bool, len(f.Agents))
	for _, s := range f.Agents {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("config: duplicate agent name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return f.Agents, nil
}

// LoadSpecs reads and parses a multi-agent configuration file.
func LoadSpecs(path string) ([]AgentSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpecs(data)
}

// BuildEnv is the process-level environment agents are built into:
// log routing plus the shared summary-export shape and the optional
// fusion uplink. One env serves every agent of a supervisor; the env's
// uplink is owned by the process, never by the daemons built into it.
type BuildEnv struct {
	// ProcName prefixes log lines ("syndogd").
	ProcName string
	// Log receives resume/migration notices (nil = discard).
	Log io.Writer
	// Summary shapes each agent's exported summaries (/summaries and
	// the uplink); local stores always keep full fidelity.
	Summary summary.Config
	// Uplink, when non-nil, receives every agent's closed-period
	// summaries, stamped with the agent's spec name as monitor.
	Uplink *summary.Uplink
}

// BuildAgent constructs the daemon an AgentSpec describes within env:
// state is loaded (or migrated/reset per the spec's policy), the
// detector and tracker built by newDetector, and the input opened as a
// streaming source. The daemon owns the source; Close releases it.
// Resume and migration notices go to env.Log, prefixed with
// env.ProcName, in the format the single-agent daemon has always
// printed. The daemon exports summaries shaped by env.Summary and,
// when env.Uplink is set, streams them to the fusion coordinator under
// the spec's name.
func BuildAgent(spec AgentSpec, env BuildEnv) (*Daemon, StateAction, error) {
	if err := spec.Validate(); err != nil {
		return nil, "", err
	}
	if env.Log == nil {
		env.Log = io.Discard
	}
	var (
		det     core.Detector
		tracker *sourcetrack.Tracker
	)
	action, err := startState(spec.State, spec.coreConfig(), spec.trackConfig(), spec.policy(), func(st *State) (err error) {
		det, tracker, err = newDetector(spec, st)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	procName, logw := env.ProcName, env.Log
	switch action {
	case ActionResumed:
		fmt.Fprintf(logw, "%s: resumed from %s (%d periods, K-bar %.1f)\n",
			procName, spec.State, det.Periods(), det.KBar())
		if tracker != nil {
			st := tracker.Stats()
			fmt.Fprintf(logw, "%s: keyed state: %d sources tracked, %d evicted\n",
				procName, st.Tracked, st.Evicted)
		}
	case ActionMigrated:
		fmt.Fprintf(logw, "%s: migrated %s to new parameters (%d periods, K-bar %.1f carried)\n",
			procName, spec.State, det.Periods(), det.KBar())
	case ActionReset:
		fmt.Fprintf(logw, "%s: reset: snapshot %s discarded (config mismatch, on-mismatch=reset)\n",
			procName, spec.State)
	}

	d, err := assemble(spec, det, tracker, env)
	if err != nil {
		return nil, "", err
	}
	return d, action, nil
}

// newDetector builds the detector spec runs and its keyed tracker —
// the one place that choice is made: a baseline through
// ingest.NewDetector, or the CUSUM agent that restoreState restores
// from st (fresh when st is nil). Baselines keep no state, so they
// ignore st.
func newDetector(spec AgentSpec, st *State) (core.Detector, *sourcetrack.Tracker, error) {
	if !spec.cusum() {
		det, err := ingest.NewDetector(spec.Detector, spec.coreConfig())
		return det, nil, err
	}
	a, tracker, err := restoreState(st, spec.coreConfig(), spec.trackConfig())
	if err != nil {
		return nil, nil, err
	}
	return a, tracker, nil
}

// assemble opens the spec's input as a streaming source and wires it
// to an already-built detector/tracker pair — the half of BuildAgent
// that touches the filesystem. The reload path calls it directly with
// a detector rebuilt from captured in-memory state.
//
// A live: input opens through capture.Open (see there for its two
// forms) with no span. Every file input takes the same road:
// ingest.Scan reads it once to learn its span and record count and to
// refuse an unsorted, out-of-span or span-less file before anything
// binds, then ingest.Open re-opens it for the replay. Neither pass
// holds more than one chunk of records.
func assemble(spec AgentSpec, det core.Detector, tracker *sourcetrack.Tracker, env BuildEnv) (*Daemon, error) {
	opts := Options{
		Name:               env.ProcName,
		Log:                env.Log,
		StatePath:          spec.State,
		CheckpointInterval: time.Duration(spec.Checkpoint),
		Tracker:            tracker,
		Monitor:            spec.Name,
		Summary:            env.Summary,
		Uplink:             env.Uplink,
	}
	effT0 := spec.coreConfig().Normalized().T0

	var prefix netip.Prefix
	if spec.Prefix != "" {
		prefix = netip.MustParsePrefix(spec.Prefix) // Validate parsed it
	}
	var (
		src  ingest.Source
		info = ingest.Info{Name: spec.Input, Records: -1}
		err  error
	)
	if strings.HasPrefix(spec.Input, "live:") {
		src, err = capture.Open(spec.Input, prefix)
	} else {
		if info, err = ingest.Scan(spec.Input, prefix); err != nil {
			return nil, err
		}
		if info.Span <= 0 {
			return nil, fmt.Errorf("daemon: trace %q has no span", info.Name)
		}
		src, _, err = ingest.Open(spec.Input, prefix)
	}
	if err != nil {
		return nil, err
	}
	d, err := New(det, src, info, effT0, opts)
	if err != nil {
		src.Close()
		return nil, err
	}
	return d, nil
}
