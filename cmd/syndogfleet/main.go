// Command syndogfleet simulates the paper's full deployment story in
// one run: a DDoS campaign of total rate V split across A stub
// networks, a SYN-dog on every leaf router, a victim server with a
// finite backlog, and the per-stub alarms that locate the flooding
// sources.
//
// Usage:
//
//	syndogfleet -stubs 8 -flooders 3 -rate 240 -duration 3m
//	syndogfleet -trials 4 -parallel 4          # independent campaigns, fanned out
//
// The report shows, per stub, whether its SYN-dog alarmed (ground
// truth: does it host a slave?), the alarm latency, and the located
// station; plus the victim's backlog trajectory.
//
// -trials runs that many independent campaigns (trial i uses seed+i)
// through the experiment engine's worker pool; each trial renders into
// its own buffer and the reports print in trial order, so the output
// does not depend on -parallel.
//
// -snapshot-dir writes each stub agent's final state as a durable
// snapshot (stub00.json, stub01.json, …) via the daemon package's
// fsync-before-rename writer, keyed per-source state included; a
// snapshot can then be served or resumed by syndogd (-state
// stub03.json with matching -t0/-a/-N, plus -track-sources -key-bits 8
// -max-sources 64 to carry the keyed half). With -trials > 1 each
// trial writes into its own trialN/ subdirectory.
//
// -uplink turns every stub into a fusion monitor: each pipeline gains
// a summary tap (monitor "stubNN") whose per-period summaries —
// censored by -uplink-censor/-uplink-topk — stream to a syndogfusion
// coordinator over one shared batched uplink, so a dispersed flood too
// small for any single stub's detector can still be caught by the
// coordinator's rank fusion.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/eventsim"
	"repro/internal/experiment"
	"repro/internal/flood"
	"repro/internal/ingest"
	"repro/internal/mitigate"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/tcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "syndogfleet:", err)
		os.Exit(1)
	}
}

type stubReport struct {
	hasSlave bool
	agent    *core.Agent
	tracker  *sourcetrack.Tracker
	locator  *mitigate.Locator
}

// campaignConfig is one fully-parsed fleet campaign.
type campaignConfig struct {
	stubs, flooders int
	totalRate       float64
	duration, onset time.Duration
	t0              time.Duration
	benign          float64
	seed            int64
	snapshotDir     string
	uplink          string
	uplinkCfg       summary.Config
}

func run(args []string) error {
	fs := flag.NewFlagSet("syndogfleet", flag.ContinueOnError)
	var (
		stubs     = fs.Int("stubs", 8, "number of stub networks")
		flooders  = fs.Int("flooders", 3, "stubs hosting a flooding slave")
		totalRate = fs.Float64("rate", 240, "aggregate flood rate V in SYN/s")
		duration  = fs.Duration("duration", 3*time.Minute, "flood duration")
		onset     = fs.Duration("onset", time.Minute, "flood onset")
		t0        = fs.Duration("t0", 10*time.Second, "observation period")
		benign    = fs.Float64("benign", 40, "legitimate connections/s per stub")
		seed      = fs.Int64("seed", 1, "random seed")
		trials    = fs.Int("trials", 1, "independent campaigns to run (trial i uses seed+i)")
		parallel  = fs.Int("parallel", 0, "worker count for -trials > 1 (0 = one per CPU)")
		snapDir   = fs.String("snapshot-dir", "", "write each stub agent's final snapshot into this directory")
		uplink    = fs.String("uplink", "", "fusion coordinator base URL; every stub uplinks censored period summaries")
		upCensor  = fs.Float64("uplink-censor", 0, "censoring threshold λ for uplinked summaries (0 = no censoring)")
		upTopK    = fs.Int("uplink-topk", 0, "source digests per uplinked summary (0 = default 8, negative = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flooders > *stubs {
		return fmt.Errorf("flooders (%d) cannot exceed stubs (%d)", *flooders, *stubs)
	}
	if *stubs < 1 || *stubs > 200 {
		return fmt.Errorf("stubs must be in [1, 200]")
	}
	if *trials < 1 {
		return fmt.Errorf("trials must be positive")
	}
	if *uplink != "" && *trials > 1 {
		return fmt.Errorf("-uplink serves one campaign; parallel trials would interleave the same monitor names")
	}
	cfg := campaignConfig{
		stubs: *stubs, flooders: *flooders, totalRate: *totalRate,
		duration: *duration, onset: *onset, t0: *t0,
		benign: *benign, seed: *seed, snapshotDir: *snapDir,
		uplink: *uplink, uplinkCfg: summary.Config{Censor: *upCensor, TopK: *upTopK},
	}
	if *trials == 1 {
		return runCampaign(cfg, os.Stdout)
	}

	// Each trial is an independent simulation writing into its own
	// buffer; the pool may run them in any order but the reports print
	// in trial order, so output bytes are independent of -parallel.
	bufs := make([]bytes.Buffer, *trials)
	err := experiment.ForEach(*parallel, *trials, func(i int) error {
		c := cfg
		c.seed = cfg.seed + int64(i)
		if cfg.snapshotDir != "" {
			c.snapshotDir = filepath.Join(cfg.snapshotDir, fmt.Sprintf("trial%d", i))
		}
		fmt.Fprintf(&bufs[i], "=== trial %d (seed %d) ===\n", i, c.seed)
		return runCampaign(c, &bufs[i])
	})
	for i := range bufs {
		os.Stdout.Write(bufs[i].Bytes())
		fmt.Println()
	}
	return err
}

// runCampaign simulates one campaign and writes its report to w.
func runCampaign(cfg campaignConfig, w io.Writer) error {
	sim := eventsim.New()
	cloud := netsim.NewInternet(sim)
	rng := rand.New(rand.NewSource(cfg.seed))

	// Victim with a realistic backlog.
	victimStub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix: netip.MustParsePrefix("10.99.0.0/24"), Hosts: 1,
		HostDelay: time.Millisecond, UplinkDelay: 10 * time.Millisecond,
	}, nil)
	if err != nil {
		return err
	}
	victim := victimStub.Hosts[0]
	server, err := tcp.NewServer(sim, victim.Addr, 80, victim.Send,
		tcp.ServerConfig{Backlog: 512})
	if err != nil {
		return err
	}
	victim.OnPacket = server.Deliver

	// A farm of always-responsive servers carries most benign load so
	// the victim's deafness cannot false-alarm innocent stubs.
	farmStub, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
		Prefix: netip.MustParsePrefix("10.98.0.0/24"), Hosts: 12,
		HostDelay: time.Millisecond, UplinkDelay: 10 * time.Millisecond,
	}, nil)
	if err != nil {
		return err
	}
	responders := make([]netip.Addr, 0, len(farmStub.Hosts))
	for _, h := range farmStub.Hosts {
		h := h
		h.OnPacket = func(_ time.Duration, s packet.Segment) {
			if s.Kind() == packet.KindSYN {
				h.Send(packet.Build(s.IP.Dst, s.IP.Src, s.TCP.DstPort, s.TCP.SrcPort,
					1, s.TCP.Seq+1, packet.FlagSYN|packet.FlagACK))
			}
		}
		responders = append(responders, h.Addr)
	}
	destinations := append([]netip.Addr{victim.Addr}, responders...)

	// Stubs, agents, slaves. Each leaf router taps into a live
	// ChanSource feeding an ingest pipeline in its own goroutine — the
	// same Source → Aggregate → Detect construction the offline tools
	// use, with the simulator as the packet source instead of a file.
	horizon := cfg.onset + cfg.duration + time.Minute
	perStub := cfg.totalRate / float64(cfg.flooders)

	// With -uplink the whole fleet shares one bounded uplink client:
	// each stub's pipeline gains a summary tap ("stubNN" as the monitor
	// name) feeding the fusion coordinator, and a slow coordinator sheds
	// summaries rather than stalling the simulation.
	var up *summary.Uplink
	if cfg.uplink != "" {
		var err error
		if up, err = summary.NewUplink(summary.UplinkConfig{
			URL: cfg.uplink, Summary: cfg.uplinkCfg,
		}); err != nil {
			return err
		}
	}
	master := flood.NewMaster()
	reports := make([]*stubReport, cfg.stubs)
	sources := make([]*ingest.ChanSource, cfg.stubs)
	pipeErrs := make([]error, cfg.stubs)
	var wg sync.WaitGroup
	for i := 0; i < cfg.stubs; i++ {
		prefix := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i+1))
		sn, err := netsim.BuildStub(sim, cloud, netsim.StubConfig{
			Prefix: prefix, Hosts: 2,
			HostDelay: time.Millisecond, UplinkDelay: 10 * time.Millisecond,
		}, nil)
		if err != nil {
			return err
		}
		sr := &stubReport{hasSlave: i < cfg.flooders}
		reports[i] = sr
		if sr.agent, err = core.NewAgent(core.Config{T0: cfg.t0}); err != nil {
			return err
		}
		// Per-stub attribution: spoofed flood sources scatter across
		// 240.0.0.0/4, so /8 keying concentrates each slave's SYNs on
		// a handful of keys while the stub's own clients stay on
		// theirs. 64 states is plenty for 16 spoof /8s + the locals.
		if sr.tracker, err = sourcetrack.New(sourcetrack.Config{
			KeyBits:    8,
			MaxSources: 64,
			Agent:      core.Config{T0: cfg.t0},
		}); err != nil {
			return err
		}
		live := ingest.NewChanSource(1024)
		sources[i] = live
		tap := live.Tap()
		sn.Router.AddTap(func(now time.Duration, dir netsim.Direction, seg *packet.Segment) {
			// The campaign window is [0, horizon): an event landing
			// exactly on the horizon belongs to no complete period.
			if now < horizon {
				tap(now, dir, seg)
			}
		})
		// The keyed bank taps the pipeline directly: the pipeline
		// goroutine folds each counted chunk into the tracker, so
		// period closes see exactly the records before them.
		p := &ingest.Pipeline{
			Source:   live,
			Detector: sr.agent,
			T0:       cfg.t0,
			Span:     horizon,
			Tap:      sr.tracker,
		}
		if up != nil {
			st := summary.NewTap(&summary.Summarizer{
				Monitor: fmt.Sprintf("stub%02d", i),
				Cfg:     cfg.uplinkCfg,
				Tracker: sr.tracker,
			}, sr.tracker, up.Send)
			p.Sink = st.Sink
			p.Tap = st
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pipeErrs[i] = p.Run()
		}(i)
		if sr.locator, err = mitigate.NewLocator(prefix); err != nil {
			return err
		}
		slaveHost := sn.Hosts[1]
		sn.Router.AddTap(func(now time.Duration, dir netsim.Direction, seg *packet.Segment) {
			if dir != netsim.Outbound {
				return
			}
			station := mitigate.StationFromAddr(seg.IP.Src)
			if !prefix.Contains(seg.IP.Src) {
				station = mitigate.StationFromAddr(slaveHost.Addr)
			}
			sr.locator.Observe(now, station, seg.IP.Src)
		})

		// Benign clients: bare SYN/ACK exchanges from host 0.
		legit := sn.Hosts[0]
		legit.OnPacket = func(_ time.Duration, s packet.Segment) {
			if s.Kind() == packet.KindSYNACK {
				legit.Send(packet.Build(s.IP.Dst, s.IP.Src, s.TCP.DstPort, s.TCP.SrcPort,
					s.TCP.Ack, s.TCP.Seq+1, packet.FlagACK))
			}
		}
		gap := time.Duration(float64(time.Second) / cfg.benign)
		for c := 0; c < int(horizon/gap); c++ {
			c := c
			dst := destinations[rng.Intn(len(destinations))]
			isn := rng.Uint32()
			sim.At(time.Duration(c)*gap, func(time.Duration) {
				legit.Send(packet.Build(legit.Addr, dst,
					uint16(10000+c%50000), 80, isn, 0, packet.FlagSYN))
			})
		}

		if sr.hasSlave {
			slave, err := flood.NewSlave(slaveHost, victim.Addr, 80,
				flood.Constant{PerSecond: perStub}, cfg.seed+int64(i))
			if err != nil {
				return err
			}
			master.Enlist(slave)
		}
	}

	if master.Slaves() > 0 {
		if err := master.Launch(sim, cfg.onset, cfg.duration); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "fleet: %d stubs (%d flooding), V=%.0f SYN/s (fi=%.1f each), onset %v, duration %v\n\n",
		cfg.stubs, cfg.flooders, cfg.totalRate, perStub, cfg.onset, cfg.duration)
	sim.RunUntil(horizon)

	// End of campaign: close every live stream and wait for the
	// pipelines to fold their trailing periods before reading verdicts.
	for _, src := range sources {
		src.CloseSend()
	}
	wg.Wait()
	if up != nil {
		// Flush the trailing summaries so the coordinator holds the
		// complete campaign before the report prints its counters.
		up.Close()
		fmt.Fprintf(w, "uplink: %d summaries sent, %d dropped, %d failed\n\n",
			up.Sent(), up.Dropped(), up.Failures())
	}
	for i, err := range pipeErrs {
		if err != nil {
			return fmt.Errorf("stub %d pipeline: %w", i, err)
		}
	}

	correct := 0
	onsetPeriod := int(cfg.onset / cfg.t0)
	for i, sr := range reports {
		role := "clean "
		if sr.hasSlave {
			role = "SLAVE "
		}
		verdict := "quiet"
		if al := sr.agent.FirstAlarm(); al != nil {
			verdict = fmt.Sprintf("ALARM at %v (+%d periods)", al.At, al.Period-onsetPeriod)
			if suspects := sr.locator.Suspects(); len(suspects) > 0 {
				verdict += fmt.Sprintf(", located %v", suspects[0].Station)
			}
			// Keyed attribution: the source prefix the flood evidence
			// concentrates on (spoofed blocks for a slave stub).
			srcs := sr.tracker.Sources(0)
			alarmedKeys := 0
			for _, s := range srcs {
				if s.Alarmed {
					alarmedKeys++
				}
			}
			if alarmedKeys > 0 {
				verdict += fmt.Sprintf(", sources %v", srcs[0].Key)
				if alarmedKeys > 1 {
					verdict += fmt.Sprintf(" (+%d more)", alarmedKeys-1)
				}
			}
		}
		ok := sr.agent.Alarmed() == sr.hasSlave
		if ok {
			correct++
		}
		marker := " "
		if !ok {
			marker = "!"
		}
		fmt.Fprintf(w, "%s stub %2d [%s] %s\n", marker, i, role, verdict)
	}
	// Persist the fleet's final agent states durably so any stub can
	// be inspected or resumed by syndogd after the campaign — written
	// even when a verdict disagrees, since a miss is exactly when the
	// operator wants the state on disk.
	if cfg.snapshotDir != "" {
		if err := os.MkdirAll(cfg.snapshotDir, 0o755); err != nil {
			return err
		}
		for i, sr := range reports {
			path := filepath.Join(cfg.snapshotDir, fmt.Sprintf("stub%02d.json", i))
			st := daemon.State{Snapshot: sr.agent.Snapshot()}
			if sr.tracker != nil {
				ks := sr.tracker.Snapshot()
				st.Sources = &ks
			}
			if err := daemon.WriteStateFile(st, path); err != nil {
				return fmt.Errorf("snapshot stub %d: %w", i, err)
			}
		}
		fmt.Fprintf(w, "\nsnapshots: %d stub agents written to %s\n", len(reports), cfg.snapshotDir)
	}

	st := server.Stats()
	fmt.Fprintf(w, "\nvictim: %d SYNs, %d dropped (backlog full), %d established\n",
		st.SynReceived, st.SynDropped, st.Established)
	// Backpressure loss across every stub's live ring: a verdict over a
	// lossy campaign is flagged, not silently trusted.
	var recordsDropped uint64
	for _, src := range sources {
		recordsDropped += src.Dropped()
	}
	fmt.Fprintf(w, "recordsDropped: %d\n", recordsDropped)
	fmt.Fprintf(w, "fleet accuracy: %d/%d stubs judged correctly\n", correct, len(reports))
	if correct != len(reports) {
		return fmt.Errorf("fleet verdicts disagree with ground truth")
	}
	return nil
}
