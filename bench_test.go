// Package repro's root benchmark suite: one benchmark per table and
// figure of the paper (regenerating the artifact end to end through
// the same registry the experiment binary uses), plus micro-benchmarks
// of the per-packet and per-period hot paths that establish the
// "low computation overhead" claim of Section 1.
//
// The artifact benchmarks use experiment fast mode so a full
// `go test -bench=.` completes in minutes; run cmd/experiment for
// paper-fidelity spans and Monte-Carlo counts.
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/cusum"
	"repro/internal/eventsim"
	"repro/internal/experiment"
	"repro/internal/flood"
	"repro/internal/fusion"
	"repro/internal/ingest"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcapng"
	"repro/internal/sourcetrack"
	"repro/internal/summary"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// benchOpts are the fast-mode options shared by the artifact benches.
// Parallelism is pinned to 1 so the per-iteration cost measures the
// sequential baseline; the *Parallel variants override it.
func benchOpts(i int) experiment.Options {
	return experiment.Options{Seed: int64(i + 1), Runs: 2, Fast: true, Parallelism: 1}
}

// runArtifact executes one registered experiment per iteration and
// reports artifact count so the compiler cannot elide the work.
func runArtifact(b *testing.B, id string) {
	b.Helper()
	runArtifactOpts(b, id, benchOpts)
}

func runArtifactOpts(b *testing.B, id string, opts func(i int) experiment.Options) {
	b.Helper()
	e, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	total := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arts, err := e.Func(opts(i))
		if err != nil {
			b.Fatal(err)
		}
		total += len(arts)
	}
	if total == 0 {
		b.Fatal("no artifacts")
	}
}

// BenchmarkTable1TraceFeatures regenerates Table 1 (trace summary).
func BenchmarkTable1TraceFeatures(b *testing.B) { runArtifact(b, "table1") }

// BenchmarkFig3Dynamics regenerates Figure 3 (LBL and Harvard
// SYN-SYN/ACK dynamics).
func BenchmarkFig3Dynamics(b *testing.B) { runArtifact(b, "fig3") }

// BenchmarkFig4Dynamics regenerates Figure 4 (UNC and Auckland
// dynamics).
func BenchmarkFig4Dynamics(b *testing.B) { runArtifact(b, "fig4") }

// BenchmarkFig5NormalOperation regenerates Figure 5 (CUSUM statistic
// on flood-free traffic; zero false alarms).
func BenchmarkFig5NormalOperation(b *testing.B) { runArtifact(b, "fig5") }

// BenchmarkFig6Architecture smoke-runs the Figure 6 mixing harness.
func BenchmarkFig6Architecture(b *testing.B) { runArtifact(b, "fig6") }

// BenchmarkTable2UNCDetection regenerates Table 2 (detection
// probability and time at UNC across fi = 37..120 SYN/s).
func BenchmarkTable2UNCDetection(b *testing.B) { runArtifact(b, "table2") }

// BenchmarkTable2UNCDetectionParallel regenerates Table 2 with the
// Monte-Carlo cells fanned over 4 workers. The artifact bytes are
// identical to the sequential benchmark (same seed derivation). Its
// wall-clock difference from BenchmarkTable2UNCDetection is not the
// pool's speedup: the UNC background is synthesized serially before
// the fan-out, and both benchmarks pay for that synthesis.
func BenchmarkTable2UNCDetectionParallel(b *testing.B) {
	runArtifactOpts(b, "table2", func(i int) experiment.Options {
		o := benchOpts(i)
		o.Parallelism = 4
		return o
	})
}

// BenchmarkFig7UNCSensitivity regenerates Figure 7 (yn dynamics at
// UNC under fi = 45/60/80 SYN/s floods).
func BenchmarkFig7UNCSensitivity(b *testing.B) { runArtifact(b, "fig7") }

// BenchmarkTable3AucklandDetection regenerates Table 3 (detection
// performance at Auckland across fi = 1.5..10 SYN/s).
func BenchmarkTable3AucklandDetection(b *testing.B) { runArtifact(b, "table3") }

// BenchmarkFig8AucklandSensitivity regenerates Figure 8 (yn dynamics
// at Auckland under fi = 2/5/10 SYN/s floods).
func BenchmarkFig8AucklandSensitivity(b *testing.B) { runArtifact(b, "fig8") }

// BenchmarkFig9TunedSensitivity regenerates Figure 9 (site-tuned
// a=0.2/N=0.6 detecting a 15 SYN/s flood the defaults cannot).
func BenchmarkFig9TunedSensitivity(b *testing.B) { runArtifact(b, "fig9") }

// --- counts fast path ---------------------------------------------------

// BenchmarkSweepFastPath runs a Table 2-shaped sweep (12 Monte-Carlo
// cells on a 15-minute UNC background) on the counts path: the
// background is aggregated once, each cell bins the flood arrivals and
// feeds per-period counts straight to the detector. The background is
// preset so the measured work is the sweep itself — aggregation plus
// the per-cell loop — not trace synthesis.
func BenchmarkSweepFastPath(b *testing.B) {
	bg, _ := cellBenchInputs()
	p := trace.UNC()
	p.Span = bg.Span
	cfg := experiment.SweepConfig{
		Profile:       p,
		Background:    bg,
		Agent:         core.Config{},
		Rates:         []float64{45, 60, 80},
		Runs:          4,
		OnsetMin:      2 * time.Minute,
		OnsetMax:      4 * time.Minute,
		FloodDuration: 8 * time.Minute,
		Seed:          1,
		Parallelism:   1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfs, err := experiment.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(perfs) != len(cfg.Rates) {
			b.Fatal("short sweep")
		}
	}
}

// cellBench* hold the shared sweep inputs for the sweep and per-cell
// benchmarks, built once per test binary so -count=N reruns measure
// the same background.
var (
	cellBenchOnce   sync.Once
	cellBenchBG     *trace.Trace
	cellBenchCounts *trace.PeriodCounts
)

func cellBenchInputs() (*trace.Trace, *trace.PeriodCounts) {
	cellBenchOnce.Do(func() {
		p := trace.UNC()
		p.Span = 15 * time.Minute
		bg, err := trace.Generate(p, 1)
		if err != nil {
			panic(err)
		}
		counts, err := bg.Aggregate(core.DefaultObservationPeriod)
		if err != nil {
			panic(err)
		}
		cellBenchBG, cellBenchCounts = bg, counts
	})
	return cellBenchBG, cellBenchCounts
}

var cellBenchCfg = experiment.RunConfig{
	Agent:         core.Config{},
	Rate:          60,
	Onset:         3 * time.Minute,
	FloodDuration: 8 * time.Minute,
	Seed:          7,
}

// BenchmarkRunCellFastPath measures one Monte-Carlo cell exactly as
// Sweep's per-cell loop runs it: a pooled Runner over the shared
// background counts — restart the agent, bin the flood into the
// scratch overlay, replay the counts.
func BenchmarkRunCellFastPath(b *testing.B) {
	_, counts := cellBenchInputs()
	r, err := experiment.NewRunner(core.Config{}, counts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(cellBenchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AlarmPeriod < 0 {
			b.Fatal("flood not detected")
		}
	}
}

// --- per-source attribution engine -------------------------------------

// BenchmarkSourceTrack measures the keyed engine's per-record cost
// across distinct-source populations. The tracker holds the default
// 1024 CUSUM states; the 10k- and 1M-source streams therefore run in
// the steady eviction regime, where Space-Saving admission recycles
// states in place — the records/s figure is the sustained keyed-demux
// rate and allocs/op must stay at zero. The "shards=1" in each name
// keeps the rows comparable with the committed gate baseline.
func BenchmarkSourceTrack(b *testing.B) {
	for _, nsrc := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("shards=1/sources=%d", nsrc), func(b *testing.B) {
			tk, err := sourcetrack.New(sourcetrack.Config{
				KeyBits: 32,
				Agent:   core.Config{},
			})
			if err != nil {
				b.Fatal(err)
			}
			dst := netip.MustParseAddr("11.99.99.1")
			recs := make([]trace.Record, nsrc)
			for i := range recs {
				recs[i] = trace.Record{
					Kind: packet.KindSYN,
					Dir:  trace.DirOut,
					Src:  netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
					Dst:  dst,
				}
			}
			// One full pass fills the tracker to capacity so the timed
			// loop measures steady state, not map growth.
			for _, r := range recs {
				tk.Observe(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk.Observe(recs[i%nsrc])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// sourceTrackStream is the live-keyed record mix: every other record a
// SYN spoofed across 240.0.0.0/4 (a fresh /24 almost every time, but
// one in sixteen from eight /24s of 240.9.0.0/16 that stay heavy and
// alarm), the rest a stub network's answered connections, SYN then
// SYN/ACK, from hosts skewed toward the low /24s of 152.2.0.0/16 so a
// few hundred keys stay heavy while the rest churn.
func sourceTrackStream(n int) []trace.Record {
	rng := rand.New(rand.NewSource(1))
	victim := netip.MustParseAddr("11.99.99.1")
	recs := make([]trace.Record, n)
	var host netip.Addr
	for i := range recs {
		switch i % 4 {
		case 0, 2:
			a := 0xf0000000 | rng.Uint32()&0x0fffffff
			if rng.Intn(16) == 0 {
				a = 0xf0090000 | uint32(rng.Intn(8))<<8 | uint32(rng.Intn(256))
			}
			recs[i] = trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut, Dst: victim,
				Src: netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})}
		case 1:
			host = netip.AddrFrom4([4]byte{152, 2, byte(rng.Intn(rng.Intn(256) + 1)), byte(rng.Intn(256))})
			recs[i] = trace.Record{Kind: packet.KindSYN, Dir: trace.DirOut, Src: host, Dst: victim}
		case 3:
			recs[i] = trace.Record{Kind: packet.KindSYNACK, Dir: trace.DirIn, Src: victim, Dst: host}
		}
	}
	return recs
}

// liveKeyedTracker is the live-keyed workload's tracker: /24 keys,
// 1024 states.
func liveKeyedTracker(b *testing.B) *sourcetrack.Tracker {
	b.Helper()
	tk, err := sourcetrack.New(sourcetrack.Config{KeyBits: 24, MaxSources: 1024,
		Agent: core.Config{T0: 20 * time.Second}})
	if err != nil {
		b.Fatal(err)
	}
	return tk
}

// BenchmarkSourceTrackBatch measures the keyed tap the way the
// live-keyed workload drives it: RecordBatch over 1024-record chunks
// of sourceTrackStream, in the eviction regime (the evictions/syn
// metric reports how many SYNs recycle a state). ns/op is per chunk.
func BenchmarkSourceTrackBatch(b *testing.B) {
	const chunk = 1024
	recs := sourceTrackStream(1 << 16)
	tk := liveKeyedTracker(b)
	for off := 0; off < len(recs); off += chunk {
		tk.RecordBatch(recs[off : off+chunk])
	}
	warm := tk.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * chunk % len(recs)
		tk.RecordBatch(recs[off : off+chunk])
	}
	b.StopTimer()
	st := tk.Stats()
	b.ReportMetric(float64(b.N*chunk)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(st.Evicted-warm.Evicted)/float64(st.SYNs-warm.SYNs), "evictions/syn")
}

// BenchmarkSourceTrackView measures the /sources read (limit=0, every
// key ranked) and the summarizer's top-8 digest read (limit=8) over a
// full live-keyed tracker after ten closed periods of
// sourceTrackStream, so the ranking sees alarmed keys and a spread of
// CUSUM statistics.
func BenchmarkSourceTrackView(b *testing.B) {
	const periods = 10
	recs := sourceTrackStream(1 << 16)
	tk := liveKeyedTracker(b)
	per := len(recs) / periods
	for p := 0; p < periods; p++ {
		tk.RecordBatch(recs[p*per : (p+1)*per])
		tk.ClosePeriod(p, time.Duration(p+1)*20*time.Second)
	}
	if st := tk.Stats(); st.Tracked != 1024 || st.Alarmed == 0 {
		b.Fatalf("tracker not full or never alarmed: %+v", st)
	}
	for _, limit := range []int{0, 8} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := tk.View(limit); len(v.Sources) == 0 {
					b.Fatal("empty view")
				}
			}
		})
	}
}

// --- multi-vantage fusion ----------------------------------------------

// BenchmarkFusion measures the coordinator's steady-state ingest cost:
// four monitors streaming censored summaries in period order, the
// coordinator advancing the fusion frontier (rank normalization over
// the sliding histories, fused CUSUM, localization bookkeeping) once
// per complete period. The periods/s metric is the sustained fusion
// rate; one period of wall clock buys t0 = 20s of fleet coverage, so
// the headroom is ~6 orders of magnitude.
func BenchmarkFusion(b *testing.B) {
	const monitors, periods = 4, 512
	names := []string{"LBL", "Harvard", "UNC", "Auckland"}
	batches := make([][]summary.PeriodSummary, 0, periods)
	for p := 0; p < periods; p++ {
		batch := make([]summary.PeriodSummary, monitors)
		for m := range batch {
			// Deterministic quiet-looking X with per-monitor phase; a
			// few digests so localization bookkeeping is exercised.
			x := 0.1 + 0.05*float64((p*7+m*13)%11)/10
			batch[m] = summary.PeriodSummary{
				Monitor:  names[m],
				Index:    p,
				OutSYN:   1000,
				InSYNACK: 900,
				K:        45,
				X:        x,
				Sources: []summary.SourceDigest{
					{Key: netip.MustParsePrefix("198.18.0.0/24"), SYNs: 40, X: x},
					{Key: netip.MustParsePrefix("198.18.1.0/24"), SYNs: 30, X: x},
				},
			}
		}
		batches = append(batches, batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord, err := fusion.NewCoordinator(fusion.Config{Expect: monitors})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			coord.Ingest(batch)
		}
		if got := len(coord.Fused(0)); got != periods {
			b.Fatalf("fused %d periods, want %d", got, periods)
		}
	}
	b.ReportMetric(float64(periods)*float64(b.N)/b.Elapsed().Seconds(), "periods/s")
}

// --- hot-path micro-benchmarks -----------------------------------------

// BenchmarkPacketClassification measures the paper's three-step
// classifier on raw bytes — the per-packet cost at the leaf router.
func BenchmarkPacketClassification(b *testing.B) {
	seg := packet.Build(
		netip.MustParseAddr("10.1.0.5"), netip.MustParseAddr("11.0.0.1"),
		40000, 80, 1, 0, packet.FlagSYN)
	raw := seg.Marshal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if packet.Classify(raw) != packet.KindSYN {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkSnifferCount measures the per-packet counter update.
func BenchmarkSnifferCount(b *testing.B) {
	s := core.NewSniffer(netsim.Outbound)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Count(packet.KindSYN)
	}
}

// BenchmarkCusumObserve measures one CUSUM update — the entire
// per-period decision cost (two additions and a comparison).
func BenchmarkCusumObserve(b *testing.B) {
	d := cusum.NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Observe(0.01)
	}
}

// BenchmarkAgentEndPeriod measures a full observation-period close:
// sniffer drain, EWMA update, normalization, CUSUM, report append.
func BenchmarkAgentEndPeriod(b *testing.B) {
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agent.Observe(netsim.Outbound, packet.KindSYN)
		agent.Observe(netsim.Inbound, packet.KindSYNACK)
		agent.EndPeriod(time.Duration(i) * time.Second)
	}
}

// BenchmarkAgentObserveTap measures the full live tap path:
// marshal -> classify -> count, i.e. what the router pays per packet
// with SYN-dog installed.
func BenchmarkAgentObserveTap(b *testing.B) {
	agent, err := core.NewAgent(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	seg := packet.Build(
		netip.MustParseAddr("10.1.0.5"), netip.MustParseAddr("11.0.0.1"),
		40000, 80, 1, 0, packet.FlagSYN)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = seg.Marshal(buf[:0])
		agent.Observe(netsim.Outbound, packet.Classify(buf))
	}
}

// BenchmarkTraceGeneration measures synthesizing one minute of
// UNC-level background traffic (~6.5k connections).
func BenchmarkTraceGeneration(b *testing.B) {
	p := trace.UNC()
	p.Span = time.Minute
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(p, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Records) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceGenerationSweepPair synthesizes the two backgrounds
// perfbench's sweep pass draws at its default seed: UNC's full 30
// minutes at seed 1 and Auckland's 3 hours at seed 2. Unlike the
// one-minute BenchmarkTraceGeneration, both spans reach the steady
// population of connections waiting for their FINs.
func BenchmarkTraceGenerationSweepPair(b *testing.B) {
	records := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, p := range []trace.Profile{trace.UNC(), trace.Auckland()} {
			tr, err := trace.Generate(p, int64(j+1))
			if err != nil {
				b.Fatal(err)
			}
			records += len(tr.Records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkProcessTrace measures replaying a 10-minute Auckland trace
// through the agent (the trace-driven experiment inner loop).
func BenchmarkProcessTrace(b *testing.B) {
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	tr, err := trace.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent, err := core.NewAgent(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agent.ProcessTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming ingestion -----------------------------------------------

// streamBench holds the shared fixture for the streaming-ingestion
// benchmarks: a 10-minute Auckland trace exported once per container
// format (libpcap, binary, CSV, tcpdump text). TestMain removes the
// files after the run.
var streamBench struct {
	sync.Once
	paths   map[string]string // extension -> temp file path
	records int
	err     error
}

// streamBenchFile returns the fixture capture with the given extension
// (".pcap", ".trace", ".csv", ".txt") and its classified record count.
func streamBenchFile(b *testing.B, ext string) (string, int) {
	b.Helper()
	streamBench.Do(func() {
		p := trace.Auckland()
		p.Span = 10 * time.Minute
		tr, err := trace.Generate(p, 1)
		if err != nil {
			streamBench.err = err
			return
		}
		writers := map[string]func(io.Writer, *trace.Trace) error{
			".pcap":  trace.WritePcap,
			".trace": trace.WriteBinary,
			".csv":   trace.WriteCSV,
			".txt":   trace.WriteTcpdump,
		}
		streamBench.paths = make(map[string]string, len(writers))
		for ext, write := range writers {
			f, err := os.CreateTemp("", "stream-bench-*"+ext)
			if err != nil {
				streamBench.err = err
				return
			}
			streamBench.paths[ext] = f.Name()
			if err := write(f, tr); err != nil {
				f.Close()
				streamBench.err = err
				return
			}
			if err := f.Close(); err != nil {
				streamBench.err = err
				return
			}
		}
		// Prescan for the classified record count — the same O(1) pass
		// syndogd runs before streaming a capture.
		info, err := ingest.Scan(streamBench.paths[".pcap"], netip.MustParsePrefix("130.216.0.0/16"))
		if err != nil {
			streamBench.err = err
			return
		}
		streamBench.records = info.Records
	})
	if streamBench.err != nil {
		b.Fatal(streamBench.err)
	}
	path, ok := streamBench.paths[ext]
	if !ok {
		b.Fatalf("no %s fixture", ext)
	}
	return path, streamBench.records
}

func streamBenchPcap(b *testing.B) (string, int) {
	return streamBenchFile(b, ".pcap")
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, path := range streamBench.paths {
		os.Remove(path)
	}
	os.Exit(code)
}

// benchStreamingIngest measures the full streaming pipeline over one
// fixture format — open, classify, aggregate, detect — exactly as the
// binaries construct it. arena, when non-nil, sets the chunk size and
// recycles chunk buffers across iterations; nil runs DefaultChunk
// chunks, as the binaries do. The records/s metric is the sustained
// ingest rate of one detector.
func benchStreamingIngest(b *testing.B, ext string, arena *ingest.Arena) {
	b.Helper()
	path, records := streamBenchFile(b, ext)
	prefix := netip.MustParsePrefix("130.216.0.0/16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent, err := core.NewAgent(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		src, _, err := ingest.Open(path, prefix)
		if err != nil {
			b.Fatal(err)
		}
		p := &ingest.Pipeline{
			Source:   src,
			Detector: agent,
			T0:       core.DefaultObservationPeriod,
			Arena:    arena,
		}
		if err := p.Run(); err != nil {
			b.Fatal(err)
		}
		if err := src.Close(); err != nil {
			b.Fatal(err)
		}
		if len(agent.Reports()) == 0 {
			b.Fatal("no periods")
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkStreamingIngestPcap is the headline ingest benchmark: the
// batch pipeline over a pcap capture, which never materializes.
func BenchmarkStreamingIngestPcap(b *testing.B) {
	benchStreamingIngest(b, ".pcap", nil)
}

// BenchmarkStreamingIngestBinary streams the compact binary container.
func BenchmarkStreamingIngestBinary(b *testing.B) {
	benchStreamingIngest(b, ".trace", nil)
}

// BenchmarkStreamingIngestCSV streams the text container; the line
// scanner and field parser dominate.
func BenchmarkStreamingIngestCSV(b *testing.B) {
	benchStreamingIngest(b, ".csv", nil)
}

// BenchmarkStreamingIngestTcpdump streams tcpdump -n text; the line
// scanner and the per-line field split dominate.
func BenchmarkStreamingIngestTcpdump(b *testing.B) {
	benchStreamingIngest(b, ".txt", nil)
}

// BenchmarkBatchIngest pins the batch machinery itself on the pcap
// path: chunk-size scaling and the arena's steady-state reuse.
func BenchmarkBatchIngest(b *testing.B) {
	for _, chunk := range []int{64, 1024, 8192} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			benchStreamingIngest(b, ".pcap", ingest.NewArena(chunk))
		})
	}
}

// BenchmarkCaptureSource measures the live capture handoff on its own:
// the streaming-ingest pcap fixture read by capture.NewPcapReader,
// parsed on the Source's producer goroutine and drained with NextBatch
// into an arena chunk — the path syndogd's live:pcap: input takes
// before the aggregator. records/s is the rate the ring delivers.
func BenchmarkCaptureSource(b *testing.B) {
	path, records := streamBenchPcap(b)
	prefix := netip.MustParsePrefix("130.216.0.0/16")
	arena := ingest.NewArena(0)
	buf := arena.Get()
	defer arena.Put(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		fr, err := capture.NewPcapReader(f, f)
		if err != nil {
			f.Close()
			b.Fatal(err)
		}
		src, err := capture.NewSource(fr, capture.Config{StubPrefix: prefix})
		if err != nil {
			fr.Close()
			b.Fatal(err)
		}
		got := 0
		for {
			n, err := src.NextBatch(buf)
			got += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := src.Close(); err != nil {
			b.Fatal(err)
		}
		if got != records {
			b.Fatalf("drained %d records, fixture has %d", got, records)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFloodGeneration measures synthesizing a 10-minute
// 120 SYN/s flood trace.
func BenchmarkFloodGeneration(b *testing.B) {
	cfg := flood.Config{
		Start:      0,
		Duration:   10 * time.Minute,
		Pattern:    flood.Constant{PerSecond: 120},
		Victim:     netip.MustParseAddr("11.99.99.1"),
		VictimPort: 80,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		tr, err := flood.GenerateTrace(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Records) == 0 {
			b.Fatal("empty flood")
		}
	}
}

// BenchmarkFrameParse measures the shared frame decoder's per-frame
// hot path — link-layer stripping, classification, TCP decode,
// direction inference — over the three link framings the parser
// accepts. This is the cost every captured packet, live or from a
// file, pays before it becomes a trace.Record, so it gates with the
// other hot paths.
func BenchmarkFrameParse(b *testing.B) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("130.216.0.9")
	prefix := netip.MustParsePrefix("130.216.0.0/16")
	seg := packet.Build(src, dst, 1234, 80, 7, 0, packet.FlagSYN)
	raw := seg.Marshal(nil)
	eth := append(append(make([]byte, 0, 14+len(raw)), make([]byte, 12)...), 0x08, 0x00)
	eth = append(eth, raw...)
	vlan := append(append(make([]byte, 0, 18+len(raw)), make([]byte, 12)...), 0x81, 0x00, 0x00, 0x05, 0x08, 0x00)
	vlan = append(vlan, raw...)

	cases := []struct {
		name     string
		linkType uint32
		data     []byte
	}{
		{"raw", pcapng.LinkTypeRaw, raw},
		{"eth", pcapng.LinkTypeEthernet, eth},
		{"vlan", pcapng.LinkTypeEthernet, vlan},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			parser, err := trace.NewFrameParser(c.linkType, prefix)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			parsed := 0
			var rec trace.Record
			for i := 0; i < b.N; i++ {
				if parser.Parse(time.Duration(i), c.data, &rec) && rec.Kind == packet.KindSYN {
					parsed++
				}
			}
			if parsed != b.N {
				b.Fatalf("parsed %d of %d frames", parsed, b.N)
			}
		})
	}
}

// BenchmarkTwoQueueAccept measures the kernel victim model's two-queue
// path end to end: SYN into the bounded SYN queue, SYN/ACK out, final
// ACK into the bounded accept queue, application drain on the accept
// timer — with enough concurrent handshakes that both overflow paths
// are exercised, the regime the victim experiment scores.
func BenchmarkTwoQueueAccept(b *testing.B) {
	const conns = 512
	victim := netip.MustParseAddr("11.99.99.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := eventsim.New()
		var server *tcp.Server
		send := func(seg packet.Segment) {
			if seg.Kind() != packet.KindSYNACK {
				return
			}
			ack := packet.Build(seg.IP.Dst, seg.IP.Src, seg.TCP.DstPort, seg.TCP.SrcPort,
				seg.TCP.Ack, seg.TCP.Seq+1, packet.FlagACK)
			sim.After(time.Millisecond, func(now time.Duration) { server.Deliver(now, ack) })
		}
		server, err := tcp.NewServer(sim, victim, 80, send, tcp.ServerConfig{AcceptBacklog: 64})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < conns; c++ {
			addr := netip.AddrFrom4([4]byte{10, 1, byte(c >> 8), byte(c)})
			syn := packet.Build(addr, victim, uint16(1024+c), 80, 1, 0, packet.FlagSYN)
			if _, err := sim.At(time.Duration(c)*2*time.Millisecond,
				func(now time.Duration) { server.Deliver(now, syn) }); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
		st := server.Stats()
		if st.Accepted == 0 || st.ListenOverflows == 0 {
			b.Fatalf("accept path not exercised: %+v", st)
		}
	}
	b.ReportMetric(float64(conns)*float64(b.N)/b.Elapsed().Seconds(), "conns/s")
}

// Example-level sanity: the micro-bench file participates in `go test`
// too, keeping the root package non-empty for test tooling.
func TestRegistryMatchesDesignDoc(t *testing.T) {
	want := []string{"table1", "fig3", "fig4", "fig5", "fig6", "table2", "fig7", "table3", "fig8", "fig9"}
	reg := experiment.Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry size %d, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
	}
}
