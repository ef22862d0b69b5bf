package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's
// shims around the call (no span lives inside program code).
type span struct {
	name   string
	parent int32 // enclosing span, -1 for a pass root
	pass   int32
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer records spans in memory for the traced passes of a run. Every
// span opens and closes on the pipeline goroutine, nested by call, so
// a stack of open spans gives each new span its parent. A nil *tracer
// records nothing: untraced passes pass nil through the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	pass  int32

	// periodAt is when the current Detector.Period call began;
	// closeLat collects Period entry → period fused, in ns.
	periodAt int64
	closeLat []int64
	// sweepCPU and sweepWall accumulate process CPU and wall time
	// inside experiment.Sweep calls.
	sweepCPU, sweepWall time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, pass: t.pass, start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part its direct
// children cover. Siblings never overlap (one goroutine, nested calls),
// so the covered part is the sum of the children's durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerStat sums one span name over a run.
type layerStat struct {
	calls int
	self  int64   // summed self time, ns
	total int64   // summed duration, ns
	durs  []int64 // per-call durations, ns
}

// ledger groups the spans by name with their self times.
func ledger(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.calls++
		st.self += self[i]
		st.total += s.end - s.start
		st.durs = append(st.durs, s.end-s.start)
	}
	return out
}

// meanNs is the mean duration per call, 0 for a layer never called.
func (st *layerStat) meanNs() float64 {
	if st == nil || st.calls == 0 {
		return 0
	}
	return float64(st.total) / float64(st.calls)
}

// selfNs is the summed self time, 0 for a layer never called.
func (st *layerStat) selfNs() float64 {
	if st == nil {
		return 0
	}
	return float64(st.self)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i])
}

// writeLedger prints the self-time ledger of the traced passes: each
// layer's share of the pass wall time on the pipeline goroutine, and
// what is left unaccounted.
func writeLedger(w io.Writer, workload string, lg map[string]*layerStat, records int) {
	pass := lg["pass"]
	if pass == nil || pass.total == 0 {
		return
	}
	fmt.Fprintf(w, "ledger %s: %d traced passes, %d records; self time on the pipeline goroutine\n", workload, pass.calls, records)
	names := make([]string, 0, len(lg))
	for name := range lg {
		if name != "pass" {
			names = append(names, name)
		}
	}
	slices.SortFunc(names, func(a, b string) int { return int(lg[b].self - lg[a].self) })
	row := func(name string, self int64, calls int) {
		perRec := 0.0
		if records > 0 {
			perRec = float64(self) / float64(records)
		}
		fmt.Fprintf(w, "  %-22s %10.3f ms %9.2f ns/record %6.2f%% %8d calls\n",
			name, float64(self)/1e6, perRec, 100*float64(self)/float64(pass.total), calls)
	}
	for _, name := range names {
		row(name, lg[name].self, lg[name].calls)
	}
	row("(unaccounted)", pass.self, pass.calls)
	row("pass wall", pass.total, pass.calls)
}

// writeSpans dumps every recorded span as tab-separated rows.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "pass\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.pass, i, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
