package sourcetrack

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/packet"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// evictionTrace is the eviction-regime workload: a seeded Harvard
// background, a class-E flood spoofed across 240.0.0.0/4 (almost every
// SYN a fresh /24), a narrower flood from 240.9.9.0/28 whose keys
// survive the churn and alarm, and an IPv6 stream over 16 /64s of
// 2001:db8::/32, half of it answered. About 0.8 of the SYNs recycle a
// state and key counts tie at the table minimum all the time, so every
// part of the (count, address, bits) order decides which key a
// newcomer recycles; the v6 keys differ in both address words, so a
// tie-break that weighs them in the wrong order shows.
func evictionTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := trace.Harvard()
	p.Span = 10 * time.Minute
	bg, err := trace.Generate(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	mixed := bg
	for i, fc := range []flood.Config{
		{Start: 2 * time.Minute, Duration: 6 * time.Minute, Pattern: flood.Constant{PerSecond: 40}},
		{Start: 3 * time.Minute, Duration: 5 * time.Minute, Pattern: flood.Constant{PerSecond: 30},
			SpoofPrefix: netip.MustParsePrefix("240.9.9.0/28")},
	} {
		fc.Victim, fc.VictimPort, fc.Seed = netip.MustParseAddr("11.9.9.9"), 80, int64(18+i)
		fl, err := flood.GenerateTrace(fc)
		if err != nil {
			t.Fatal(err)
		}
		mixed = trace.Merge("mixed", mixed, fl)
	}
	rng := rand.New(rand.NewSource(20))
	victim := netip.MustParseAddr("2001:db8:ffff::1")
	v6 := &trace.Trace{Name: "v6", Span: p.Span}
	for ts := time.Minute; ts < p.Span; ts += 50 * time.Millisecond {
		var b [16]byte
		copy(b[:], []byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, byte(rng.Intn(16))})
		b[13] = byte(rng.Intn(4))
		b[14], b[15] = byte(rng.Intn(256)), byte(rng.Intn(256))
		host := netip.AddrFrom16(b)
		v6.Records = append(v6.Records, trace.Record{Ts: ts, Kind: packet.KindSYN, Dir: trace.DirOut,
			Src: host, Dst: victim, DstPort: 80})
		if rng.Intn(2) == 0 {
			v6.Records = append(v6.Records, trace.Record{Ts: ts + 40*time.Millisecond, Kind: packet.KindSYNACK,
				Dir: trace.DirIn, Src: victim, Dst: host, SrcPort: 80})
		}
	}
	v6.Sort()
	return trace.Merge("eviction", mixed, v6)
}

// evictionDigests runs the workload through one tracker configuration
// and renders its observable outputs: per-period OnReport rows sorted
// by key (the row order within a period follows the admission heap's
// layout, which is free), the snapshot encoding, View(0) and View(8)
// as JSON, and the stats ledger in the clear.
func evictionDigests(t *testing.T, tr *trace.Trace, bits, shards int) string {
	t.Helper()
	tk, err := New(Config{KeyBits: bits, MaxSources: 64, Shards: shards, Agent: core.Config{T0: 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		key netip.Prefix
		r   core.Report
	}
	var rows []row
	tk.OnReport = func(key netip.Prefix, r core.Report) { rows = append(rows, row{key, r}) }
	if err := tk.ProcessTrace(tr); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(rows, func(a, b row) int {
		if a.r.Index != b.r.Index {
			return a.r.Index - b.r.Index
		}
		if c := a.key.Addr().Compare(b.key.Addr()); c != 0 {
			return c
		}
		return a.key.Bits() - b.key.Bits()
	})
	reports := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(reports, "%s %+v\n", r.key, r.r)
	}
	snap, err := tk.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(tk.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(name string, h hash.Hash) {
		fmt.Fprintf(&b, "bits=%d shards=%d %s %x\n", bits, shards, name, h.Sum(nil))
	}
	digest := func(data []byte) hash.Hash {
		h := sha256.New()
		h.Write(data)
		return h
	}
	line("reports", reports)
	line("snapshot", digest(snap))
	for _, limit := range []int{0, 8} {
		data, err := json.Marshal(tk.View(limit))
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("view%d", limit), digest(data))
	}
	fmt.Fprintf(&b, "bits=%d shards=%d stats %s\n", bits, shards, stats)
	return b.String()
}

// TestEvictionGolden pins the Space-Saving eviction order end to end:
// which keys a flood of fresh sources recycles, and therefore every
// per-key report, snapshot, view and counter, across /24 and /32
// keying and 1, 2, 3 and 8 shards. FNV-1a modulo a power of two reads
// only the low bits of each byte, so the 3-shard runs are the ones
// that pin the full shard routing. testdata/eviction.golden was recorded
// from the map-and-pointer-heap tracker this package had before its
// flat-array layout; regenerate it with -update only for a deliberate
// change of the eviction order.
func TestEvictionGolden(t *testing.T) {
	tr := evictionTrace(t)
	var got strings.Builder
	for _, bits := range []int{24, 32} {
		for _, shards := range []int{1, 2, 3, 8} {
			got.WriteString(evictionDigests(t, tr, bits, shards))
		}
	}
	path := filepath.Join("testdata", "eviction.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("eviction outputs drifted from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
