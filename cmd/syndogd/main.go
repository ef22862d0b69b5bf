// Command syndogd runs SYN-dog detectors as a long-lived daemon: it
// replays captures in (optionally accelerated) real time through the
// ingest pipeline and serves the detectors' live state over HTTP — the
// operational wrapper a network operator would deploy next to a leaf
// router. One process supervises N agents (one per watched capture)
// behind a shared HTTP plane; the replay/serve/snapshot/reload
// machinery lives in internal/daemon, and this command only parses
// flags and wires the pieces.
//
// Endpoints (single agent — unchanged from the single-agent daemon):
//
//	GET /healthz  -> 200 "ok" (503 once a replay has failed)
//	GET /status   -> JSON snapshot (periods, K-bar, yn, alarm, replay + checkpoint state)
//	GET /reports  -> JSON array of per-period reports
//	GET /sources  -> JSON ranked per-source attribution (with -track-sources)
//	GET /summaries-> JSON censored per-period summaries, the uplink wire form (?from=N)
//	GET /metrics  -> Prometheus-style text exposition (incl. period/checkpoint latency histograms)
//
// With more than one agent the plane grows per-agent routing:
//
//	GET  /agents                    -> agent inventory (name, detector, generation, state)
//	GET  /agents/{name}/status      -> that agent's status (also /reports, /sources, /metrics)
//	GET  /status                    -> {"agents": {name: status, ...}}
//	GET  /metrics                   -> every metric once, one sample per agent: name{agent="x"} v
//	POST /reload                    -> apply a new spec set (body, or re-read -config when empty)
//	GET  /reloads                   -> ring-buffered reload audit history (time, diff, per-agent outcome)
//	GET  /debug/bundle              -> tar.gz of config + per-agent status/reports/sources/metrics/state
//	GET  /debug/pprof/...           -> net/http/pprof profiles (only with -pprof)
//
// With -uplink every agent POSTs its per-period summaries — censored
// to the wire form by -uplink-censor/-uplink-topk — to a syndogfusion
// coordinator, batched and bounded so a slow or dead coordinator never
// stalls replay (drops are counted at syndog_uplink_dropped_total).
//
// Usage:
//
//	syndogd -in mixed.trace -listen :8080 -speed 60
//	syndogd -in mixed.trace -state agent.json -checkpoint 30s
//	syndogd -agent east=east.trace -agent west=west.pcap -prefix 152.2.0.0/16
//	syndogd -config agents.json
//	syndogd -in mixed.trace -state agent.json -N 2.5 -on-mismatch migrate
//
// -in is shorthand for a single agent named "agent"; -agent name=input
// (repeatable) starts one agent per capture, each taking the shared
// parameter flags as defaults; -config reads the full per-agent spec
// set from a JSON file ({"agents":[{...}]}), the only way to give
// agents distinct parameters or state files. SIGHUP — or an empty-body
// POST /reload — re-reads the -config file and applies the difference
// to the live process: compatible parameter changes (alpha, a, N,
// max-sources, checkpoint, input) apply in place with full state
// carried; incompatible ones (t0, detector, key bits, disabling
// tracking) follow the agent's onMismatch policy.
//
// -speed 60 replays one minute of trace time per wall second; -speed 0
// processes the whole trace instantly and then just serves the final
// state (useful for post-mortems).
//
// Every file input streams — binary .trace/.bin, .csv, .pcap and
// tcpdump .txt/.dump, each optionally gzipped: the file is read once
// in O(1) memory to learn its span and record count and to refuse it,
// before the listener binds, if its records are out of timestamp order
// or outside the span; then it is replayed without ever holding the
// capture in memory. Direction inference for pcap and tcpdump text
// needs -prefix.
//
// A live: input watches a wire instead of replaying a file, through
// the internal/capture subsystem:
//
//	syndogd -in live:eth0 -prefix 152.2.0.0/16        # AF_PACKET (linux, -tags live, CAP_NET_RAW)
//	syndogd -in live:pcap:feed.pcap -prefix 152.2.0.0/16  # pcap byte-stream: file, or FIFO fed by tcpdump -w -
//
// live:IFACE opens an AF_PACKET socket (build tag "live"; without it
// the input is refused at startup) in drop mode: a NIC cannot be
// paused, so ring overruns shed records and count them instead of
// losing packets invisibly in the kernel. live:pcap:PATH is the
// portable form — blocking, lossless, and bit-identical to replaying
// the same file as a plain .pcap input. Live agents have no period
// count or replay progress; -speed is ignored and periods close as
// record timestamps cross boundaries. Capture-layer accounting
// (frames, parsed records, ring and kernel drops) joins /status under
// "capture" and /metrics as syndog_capture_*.
//
// With -state, the agent snapshot is loaded at start if the file
// exists and written durably (fsync before rename) at shutdown — and
// every -checkpoint interval while running. A resumed agent skips the
// periods its snapshot already covers, so a restart produces the same
// report series as one uninterrupted run. A snapshot whose parameters
// disagree with the flags follows -on-mismatch: error (default —
// never silently adopted), migrate (carry every portable piece of
// state), or reset (start fresh). Only the syndog-cusum detector
// carries snapshot state, so -state requires it; the baselines are
// stateless comparisons.
//
// -track-sources adds the per-source attribution engine (one keyed
// CUSUM per source prefix, Space-Saving bounded to -max-sources): the
// ranked offender list serves at /sources, keyed gauges join /metrics,
// and the snapshot carries the keyed state too — resuming a keyed
// snapshot without -track-sources, or with a changed -key-bits, is
// governed by the same -on-mismatch policy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "syndogd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("syndogd", flag.ContinueOnError)
	var agents []daemon.AgentSpec
	var (
		in         = fs.String("in", "", "input capture, streamed: .trace/.bin (binary), .csv, .pcap, .txt/.dump (tcpdump text), optionally .gz; shorthand for one -agent")
		configPath = fs.String("config", "", "JSON agent spec file ({\"agents\":[...]}); re-read on SIGHUP or empty POST /reload")
		prefixStr  = fs.String("prefix", "", "stub prefix for pcap, tcpdump-text and live direction inference (e.g. 152.2.0.0/16)")
		detector   = fs.String("detector", "", "decision rule: "+strings.Join(ingest.DetectorNames(), ", ")+" (default syndog-cusum)")
		listen     = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		speed      = fs.Float64("speed", 0, "trace seconds replayed per wall second (0 = instant)")
		t0         = fs.Duration("t0", 20*time.Second, "observation period")
		alpha      = fs.Float64("alpha", 0, "K-bar EWMA weight (0 = default 0.9)")
		offset     = fs.Float64("a", 0.35, "CUSUM offset a")
		threshold  = fs.Float64("N", 1.05, "flooding threshold N")
		statePath  = fs.String("state", "", "snapshot file: loaded at start if present, written at shutdown")
		checkpoint = fs.Duration("checkpoint", 0, "periodic snapshot interval (0 = only at shutdown; needs -state)")
		track      = fs.Bool("track-sources", false, "run the per-source attribution engine (/sources endpoint)")
		uplink     = fs.String("uplink", "", "fusion coordinator base URL; agents POST censored period summaries to URL/ingest")
		upCensor   = fs.Float64("uplink-censor", 0, "censoring threshold λ: summaries with Xn below it uplink counters only (0 = no censoring)")
		upTopK     = fs.Int("uplink-topk", 0, "source digests per uplinked summary (0 = default 8, negative = none)")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the HTTP plane")
		keyBits    = fs.Int("key-bits", sourcetrack.DefaultKeyBits, "source key prefix width: 32 per host, 24, 16, ... (needs -track-sources)")
		maxSources = fs.Int("max-sources", sourcetrack.DefaultMaxSources, "per-source CUSUM states to keep (Space-Saving admission; needs -track-sources)")
		mismatch   = fs.String("on-mismatch", "", "snapshot/flag disagreement policy: error, migrate, reset (default error)")
	)
	fs.Func("agent", "agent as name=input, repeatable; shared parameter flags apply to each", func(v string) error {
		name, input, ok := strings.Cut(v, "=")
		if !ok || name == "" || input == "" {
			return fmt.Errorf("want name=input, got %q", v)
		}
		agents = append(agents, daemon.AgentSpec{Name: name, Input: input})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := daemon.ParsePolicy(*mismatch)
	if err != nil {
		return err
	}

	// Assemble the spec set: a config file is authoritative; otherwise
	// the shared parameter flags fill in every -agent (and the -in
	// shorthand becomes a single agent named "agent").
	var specs []daemon.AgentSpec
	switch {
	case *configPath != "":
		if *in != "" || len(agents) > 0 {
			return errors.New("-config already names the agents; drop -in/-agent")
		}
		if specs, err = daemon.LoadSpecs(*configPath); err != nil {
			return err
		}
	case *in != "" && len(agents) > 0:
		return errors.New("use -in (one agent) or -agent (many), not both")
	case *in != "":
		agents = []daemon.AgentSpec{{Name: "agent", Input: *in}}
		fallthrough
	case len(agents) > 0:
		if *statePath != "" && len(agents) > 1 {
			return errors.New("-state is one file and cannot serve multiple agents; use -config for per-agent state")
		}
		for _, a := range agents {
			a.Prefix = *prefixStr
			a.Detector = *detector
			a.T0 = daemon.Duration(*t0)
			a.Alpha = *alpha
			a.Offset = *offset
			a.Threshold = *threshold
			a.State = *statePath
			a.Checkpoint = daemon.Duration(*checkpoint)
			a.TrackSources = *track
			a.OnMismatch = policy
			if *track || *keyBits != sourcetrack.DefaultKeyBits {
				a.KeyBits = *keyBits
			}
			if *track || *maxSources != sourcetrack.DefaultMaxSources {
				a.MaxSources = *maxSources
			}
			specs = append(specs, a)
		}
	default:
		return errors.New("missing -in (or -agent/-config)")
	}

	// The uplink is one shared client for every agent: each closed
	// period's summary is censored to the wire form and batched to the
	// coordinator, never blocking replay (backpressure drops and
	// counts, like ChanSource's drop mode).
	sumCfg := summary.Config{Censor: *upCensor, TopK: *upTopK}
	var up *summary.Uplink
	if *uplink != "" {
		if up, err = summary.NewUplink(summary.UplinkConfig{
			URL:     *uplink,
			Summary: sumCfg,
		}); err != nil {
			return err
		}
		defer up.Close()
	}

	s, err := daemon.NewSupervisor(specs, daemon.SupervisorOptions{
		ProcName:   "syndogd",
		Log:        os.Stderr,
		Speed:      *speed,
		ConfigPath: *configPath,
		Summary:    sumCfg,
		Uplink:     up,
		Pprof:      *pprofOn,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads -config and applies the difference live. A
	// reload failure is an operator mistake to report, not a reason to
	// take the daemon down.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := s.ReloadFromConfig(); err != nil {
				fmt.Fprintf(os.Stderr, "syndogd: %v\n", err)
			}
		}
	}()

	// The supervisor owns the shutdown snapshots: every stateful agent
	// is final-saved when Run returns, signal or not.
	return s.Run(ctx, *listen)
}
