package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time: every goroutine,
// the garbage collector and the capture producer included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's peak-RSS mark (VmHWM) to the current
// RSS, so a later peakRSS covers only what runs after the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procStatus reads one kB-valued field of /proc/self/status, in bytes.
func procStatus(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	prefix := []byte(field + ":")
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, prefix) {
			continue
		}
		fields := bytes.Fields(line[len(prefix):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// runtimeSample holds the runtime/metrics counters the benchmark
// reports as deltas over the timed passes.
type runtimeSample struct {
	allocs, bytes, cycles uint64
	gcCPU, assistCPU      float64 // seconds
}

// addDelta adds the change from one reading to a later one.
func (s *runtimeSample) addDelta(from, to runtimeSample) {
	s.allocs += to.allocs - from.allocs
	s.bytes += to.bytes - from.bytes
	s.cycles += to.cycles - from.cycles
	s.gcCPU += to.gcCPU - from.gcCPU
	s.assistCPU += to.assistCPU - from.assistCPU
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:    s[0].Value.Uint64(),
		bytes:     s[1].Value.Uint64(),
		cycles:    s[2].Value.Uint64(),
		gcCPU:     s[3].Value.Float64(),
		assistCPU: s[4].Value.Float64(),
	}
}
