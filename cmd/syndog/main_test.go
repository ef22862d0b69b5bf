package main

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/trace"
)

// writeTempTrace writes tr in the given format and returns the path.
func writeTempTrace(t *testing.T, tr *trace.Trace, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(name, ".csv"):
		err = trace.WriteCSV(f, tr)
	case strings.HasSuffix(name, ".pcap"):
		err = trace.WritePcap(f, tr)
	default:
		err = trace.WriteBinary(f, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func benignTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := trace.Auckland()
	p.Span = 10 * time.Minute
	p.OutagesPerHour = 0
	tr, err := trace.Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func floodedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	bg := benignTrace(t)
	fl, err := flood.GenerateTrace(flood.Config{
		Start:      3 * time.Minute,
		Duration:   5 * time.Minute,
		Pattern:    flood.Constant{PerSecond: 10},
		Victim:     netip.MustParseAddr("11.99.99.1"),
		VictimPort: 80,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixed := trace.Merge("mixed", bg, fl)
	mixed.Span = bg.Span
	return mixed
}

func TestRunCleanTraceExitsZero(t *testing.T) {
	path := writeTempTrace(t, benignTrace(t), "bg.trace")
	var out bytes.Buffer
	code, err := run([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "no flooding detected") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunFloodedTraceExitsTwo(t *testing.T) {
	path := writeTempTrace(t, floodedTrace(t), "mixed.trace")
	var out bytes.Buffer
	code, err := run([]string{"-in", path, "-v"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "FLOODING ALARM") {
		t.Error("missing alarm banner")
	}
	if !strings.Contains(out.String(), "*** ALARM ***") {
		t.Error("verbose period table missing alarm markers")
	}
}

func TestRunCSVInput(t *testing.T) {
	path := writeTempTrace(t, floodedTrace(t), "mixed.csv")
	var out bytes.Buffer
	code, err := run([]string{"-in", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("csv exit code = %d, want 2", code)
	}
}

func TestRunPcapInputNeedsPrefix(t *testing.T) {
	path := writeTempTrace(t, floodedTrace(t), "mixed.pcap")
	var out bytes.Buffer
	if _, err := run([]string{"-in", path}, &out); err == nil {
		t.Error("pcap without -prefix accepted")
	}
	code, err := run([]string{"-in", path, "-prefix", "130.216.0.0/16"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("pcap exit code = %d, want 2", code)
	}
}

func TestRunTcpdumpInput(t *testing.T) {
	// A hand-rolled tcpdump log with a clear flood tail.
	var sb strings.Builder
	for s := 0; s < 120; s++ {
		ts := fmt.Sprintf("10:00:%02d.000000", s%60)
		if s >= 60 {
			ts = fmt.Sprintf("10:01:%02d.000000", s%60)
		}
		sb.WriteString(ts + " IP 130.216.0.5.40000 > 11.0.0.1.80: Flags [S], length 0\n")
		if s < 60 {
			sb.WriteString(ts + " IP 11.0.0.1.80 > 130.216.0.5.40000: Flags [S.], length 0\n")
		} else {
			// Flood phase: 9 extra unanswered SYNs per second.
			for k := 0; k < 9; k++ {
				sb.WriteString(ts + " IP 240.0.0.7.999 > 11.0.0.1.80: Flags [S], length 0\n")
			}
		}
	}
	path := filepath.Join(t.TempDir(), "log.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := run([]string{"-in", path}, &out); err == nil {
		t.Error("tcpdump without -prefix accepted")
	}
	code, err := run([]string{"-in", path, "-prefix", "130.216.0.0/16", "-t0", "10s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("tcpdump exit code = %d, want 2 (alarm)", code)
	}
}

// TestRunTcpdumpPeriodBoundary replays four SYNs stamped exactly 20 s
// apart at .000052 past the second: with -t0 20s every period counts
// one out-SYN. Text timestamps parsed through float seconds put the
// second SYN 1 ns early and printed 2, 0, 1.
func TestRunTcpdumpPeriodBoundary(t *testing.T) {
	var sb strings.Builder
	for i, ts := range []string{"10:00:12", "10:00:32", "10:00:52", "10:01:12"} {
		fmt.Fprintf(&sb, "%s.000052 IP 10.1.0.1.%d > 11.0.0.1.80: Flags [S], seq 1, win 65535, length 0\n", ts, 40000+i)
	}
	path := filepath.Join(t.TempDir(), "four.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := run([]string{"-in", path, "-prefix", "10.1.0.0/16", "-t0", "20s", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	var outSYN []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == fmt.Sprint(len(outSYN)) {
			outSYN = append(outSYN, f[2])
		}
	}
	if got := strings.Join(outSYN, " "); got != "1 1 1" {
		t.Errorf("outSYN per period = %q, want \"1 1 1\"\n%s", got, out.String())
	}
}

// TestRunLivePcapInput: live:pcap:PATH replays a capture file through
// the capture frame parser, reaches the same verdict as the plain
// .pcap path, and reports its (zero, here: blocking mode) drop count.
func TestRunLivePcapInput(t *testing.T) {
	path := writeTempTrace(t, floodedTrace(t), "mixed.pcap")

	var plain bytes.Buffer
	if _, err := run([]string{"-in", path, "-prefix", "130.216.0.0/16"}, &plain); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run([]string{"-in", "live:pcap:" + path, "-prefix", "130.216.0.0/16"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("live:pcap exit code = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "records dropped: 0") {
		t.Errorf("missing drop-count line:\n%s", out.String())
	}
	// Same verdict line as the plain path; only the trace name and the
	// trailing drop line differ.
	wantAlarm := ""
	for _, line := range strings.Split(plain.String(), "\n") {
		if strings.HasPrefix(line, "FLOODING ALARM") {
			wantAlarm = line
		}
	}
	if wantAlarm == "" || !strings.Contains(out.String(), wantAlarm) {
		t.Errorf("live alarm line diverges from plain pcap path:\nplain: %q\nlive:\n%s", wantAlarm, out.String())
	}
}

func TestRunLiveInputErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-in", "live:eth0", "-prefix", "10.0.0.0/8"}, &out); err == nil ||
		!strings.Contains(err.Error(), "syndogd") {
		t.Errorf("live:eth0 error = %v, want pointer at syndogd", err)
	}
	if _, err := run([]string{"-in", "live:pcap:x.pcap"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-prefix") {
		t.Errorf("live:pcap without prefix error = %v, want -prefix requirement", err)
	}
	if _, err := run([]string{"-in", "live:pcap:", "-prefix", "10.0.0.0/8"}, &out); err == nil {
		t.Error("empty live:pcap path accepted")
	}
}

func TestRunTunedParameters(t *testing.T) {
	path := writeTempTrace(t, benignTrace(t), "bg.trace")
	var out bytes.Buffer
	code, err := run([]string{"-in", path, "-a", "0.2", "-N", "0.6"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("tuned params false-alarmed on benign trace (code %d)", code)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{}, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if _, err := run([]string{"-in", "/nonexistent/x.trace"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := run([]string{"-in", "x", "-t0", "-5s"}, &out); err == nil {
		t.Error("negative t0 accepted")
	}
}
