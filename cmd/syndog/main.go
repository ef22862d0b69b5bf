// Command syndog runs a SYN-dog detector over a recorded capture and
// reports the per-period detection state and any flooding alarm — the
// offline equivalent of the leaf-router agent.
//
// Input flows through the streaming ingest pipeline (Source →
// Aggregate → Detect), so captures larger than memory — tcpdump text
// included — replay in O(1) space. Records must be in timestamp order;
// an out-of-order file is refused.
//
// Usage:
//
//	syndog -in mixed.trace                  # binary trace
//	syndog -in capture.pcap -prefix 152.2.0.0/16
//	syndog -in live:pcap:feed.pcap -prefix 152.2.0.0/16  # capture-path replay (file or FIFO)
//	syndog -in a.csv -a 0.2 -N 0.6          # site-tuned parameters
//	syndog -in mixed.trace -detector adaptive-ewma
//	syndog -in mixed.trace -track-sources   # per-source attribution
//
// live:pcap:PATH reads the file (or a FIFO fed by `tcpdump -w -`)
// through the capture frame parser — the portable half of the live
// subsystem — and is bit-identical to opening the same .pcap directly.
// Endless interface capture (live:IFACE) belongs to syndogd, which has
// an HTTP plane and a shutdown story; syndog is a finite-replay tool.
// Sources that shed records under backpressure report the count on
// exit ("records dropped: N") so loss is never silent.
//
// -track-sources runs a keyed CUSUM bank beside the aggregate
// detector (internal/sourcetrack) and appends a ranked per-source
// attribution block: which prefixes the flood evidence concentrates
// on. -key-bits sets the prefix width and -max-sources the bounded
// number of tracked keys.
//
// Exit status: 0 = no alarm, 2 = flooding alarm raised, 1 = error.
// The exit code is the aggregate detector's verdict; attribution
// annotates it without changing the contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sourcetrack"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "syndog:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("syndog", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input capture: .trace/.bin (binary), .csv, .pcap, .txt/.dump, or live:pcap:PATH (capture-path replay)")
		prefixStr  = fs.String("prefix", "", "stub prefix for pcap direction inference (e.g. 152.2.0.0/16)")
		detector   = fs.String("detector", "", "decision rule: "+strings.Join(ingest.DetectorNames(), ", ")+" (default syndog-cusum)")
		t0         = fs.Duration("t0", 20*time.Second, "observation period")
		offset     = fs.Float64("a", 0.35, "CUSUM offset a")
		threshold  = fs.Float64("N", 1.05, "flooding threshold N")
		alpha      = fs.Float64("alpha", 0.9, "EWMA memory for K-bar")
		verbose    = fs.Bool("v", false, "print every observation period")
		track      = fs.Bool("track-sources", false, "attribute detection per source prefix (keyed CUSUM bank)")
		keyBits    = fs.Int("key-bits", sourcetrack.DefaultKeyBits, "source key prefix width: 32 per host, 24, 16, ... (needs -track-sources)")
		maxSources = fs.Int("max-sources", sourcetrack.DefaultMaxSources, "per-source CUSUM states to keep (Space-Saving admission; needs -track-sources)")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *in == "" {
		return 1, fmt.Errorf("missing -in")
	}
	var prefix netip.Prefix
	if *prefixStr != "" {
		var err error
		if prefix, err = netip.ParsePrefix(*prefixStr); err != nil {
			return 1, fmt.Errorf("prefix: %w", err)
		}
	}

	src, info, err := openInput(*in, prefix)
	if err != nil {
		return 1, err
	}
	defer src.Close()

	if !*track && (*keyBits != sourcetrack.DefaultKeyBits || *maxSources != sourcetrack.DefaultMaxSources) {
		return 1, fmt.Errorf("-key-bits/-max-sources need -track-sources")
	}
	var tracker *sourcetrack.Tracker
	if *track {
		// Offline replay is single-goroutine, so one shard keeps the
		// run bit-identical to a per-key agent bank.
		tracker, err = sourcetrack.New(sourcetrack.Config{
			KeyBits:    *keyBits,
			MaxSources: *maxSources,
			Shards:     1,
			Agent: core.Config{
				T0:        *t0,
				Alpha:     *alpha,
				Offset:    *offset,
				Threshold: *threshold,
			},
		})
		if err != nil {
			return 1, err
		}
	}

	det, err := ingest.NewDetector(*detector, core.Config{
		T0:        *t0,
		Alpha:     *alpha,
		Offset:    *offset,
		Threshold: *threshold,
	})
	if err != nil {
		return 1, err
	}

	var sink ingest.Sink
	if *verbose {
		fmt.Fprintln(stdout, "period  end        outSYN  inSYN/ACK  K-bar      Xn        yn       alarm")
		sink = func(r core.Report) {
			mark := ""
			if r.Alarmed {
				mark = "  *** ALARM ***"
			}
			fmt.Fprintf(stdout, "%6d  %-9v %7d  %9d  %9.1f  %8.4f  %8.4f%s\n",
				r.Index, r.End, r.OutSYN, r.InSYNACK, r.K, r.X, r.Y, mark)
		}
	}

	p := &ingest.Pipeline{Source: src, Detector: det, T0: *t0, Sink: sink}
	if tracker != nil {
		p.Tap = tracker
	}
	if err := p.Run(); err != nil {
		return 1, err
	}

	// Header-carried names (binary, CSV) beat the file path, matching
	// the materializing loaders.
	name := info.Name
	if ns, ok := src.(ingest.NamedSource); ok && ns.Name() != "" {
		name = ns.Name()
	}

	// The yn/N/K-bar summary only means something for the CUSUM rule;
	// baselines report their name instead of another rule's statistic.
	_, cusum := det.(*core.Agent)
	if cusum {
		fmt.Fprintf(stdout, "trace %q: %d periods of %v, K-bar %.1f\n",
			name, det.Periods(), *t0, det.KBar())
	} else {
		fmt.Fprintf(stdout, "trace %q: %d periods of %v, detector %s\n",
			name, det.Periods(), *t0, det.Name())
	}
	code := 0
	if al := det.FirstAlarm(); al != nil {
		if cusum {
			fmt.Fprintf(stdout, "FLOODING ALARM at period %d (t=%v, yn=%.3f > N=%.3g)\n",
				al.Period, al.At, al.Y, *threshold)
		} else {
			fmt.Fprintf(stdout, "FLOODING ALARM at period %d (t=%v, detector %s)\n",
				al.Period, al.At, det.Name())
		}
		fmt.Fprintln(stdout, "the flooding source is inside this stub network; trigger ingress filtering / MAC location")
		code = 2
	} else {
		fmt.Fprintln(stdout, "no flooding detected")
	}
	if tracker != nil {
		printSources(stdout, tracker)
	}
	// Backpressure loss is part of the verdict: a source that shed
	// records reports how many, so "no flooding detected" over a lossy
	// replay is never mistaken for a complete one.
	if dc, ok := src.(ingest.DropCounter); ok {
		fmt.Fprintf(stdout, "records dropped: %d\n", dc.Dropped())
	}
	return code, nil
}

// openInput opens the -in argument: live:pcap:PATH goes through
// capture.Open and the capture frame parser (bit-identical to the
// plain .pcap path — the equivalence the daemon suite pins),
// everything else through ingest.Open. live:IFACE is refused: an
// interface never reaches EOF, and endless capture belongs to syndogd.
func openInput(in string, prefix netip.Prefix) (ingest.Source, ingest.Info, error) {
	rest, ok := strings.CutPrefix(in, "live:")
	if !ok {
		return ingest.Open(in, prefix)
	}
	if !strings.HasPrefix(rest, "pcap:") {
		return nil, ingest.Info{}, fmt.Errorf("live:%s: interface capture never ends — run it under syndogd; syndog replays finite streams (live:pcap:PATH)", rest)
	}
	if !prefix.IsValid() {
		return nil, ingest.Info{}, fmt.Errorf("live input %s needs -prefix for direction inference", in)
	}
	src, err := capture.Open(in, prefix)
	if err != nil {
		return nil, ingest.Info{}, err
	}
	return src, ingest.Info{Name: in}, nil
}

// printSources renders the attribution block: the truncation ledger
// line, then the top keys ranked most-suspect first. The format is
// pinned by the CLI exec tests.
func printSources(w io.Writer, tracker *sourcetrack.Tracker) {
	cfg := tracker.Config()
	st := tracker.Stats()
	fmt.Fprintf(w, "sources: %d tracked /%d keys (max %d, %d evicted, %d alarmed)\n",
		st.Tracked, cfg.KeyBits, cfg.MaxSources, st.Evicted, st.Alarmed)
	top := tracker.Sources(10)
	if len(top) == 0 {
		return
	}
	fmt.Fprintln(w, "  rank  source                SYNs  periods        yn  state")
	for i, s := range top {
		state := "quiet"
		if s.Alarmed {
			state = fmt.Sprintf("ALARM p%d", s.AlarmPeriod)
		}
		fmt.Fprintf(w, "%6d  %-18s %7d  %7d  %8.3f  %s\n",
			i+1, s.Key, s.Count, s.Periods, s.Y, state)
	}
}
