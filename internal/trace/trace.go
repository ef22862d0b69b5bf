// Package trace models the packet traces driving the paper's
// evaluation: the record format, per-site synthetic generators
// calibrated to the levels reported in Table 1 and Figures 3-4,
// binary/text/pcap codecs, and the per-period aggregation that feeds
// SYN-dog.
//
// The original LBL (1994), Harvard (1997), UNC (2000) and Auckland
// (2000) traces are not redistributable, so this package synthesizes
// traces whose per-observation-period SYN and SYN/ACK dynamics match
// what the paper reports (see DESIGN.md, "Substitutions"). The
// detector is non-parametric: matching the level, burstiness and
// SYN-SYN/ACK coupling of the counting process reproduces its
// operating regime.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"repro/internal/packet"
)

// Direction classifies a record relative to the stub network whose
// leaf router recorded the trace.
type Direction uint8

// Directions. DirOut is Intranet->Internet (where outgoing SYNs are
// counted), DirIn is Internet->Intranet (incoming SYN/ACKs).
const (
	DirIn Direction = iota + 1
	DirOut
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Record is one trace event: a classified TCP control segment crossing
// the leaf router at time Ts (relative to trace start). The one-byte
// fields come last, after the ports, so a record packs into 64 bytes:
// one cache line.
type Record struct {
	Ts      time.Duration
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Kind    packet.Kind
	Dir     Direction
}

// Trace is an ordered sequence of records.
type Trace struct {
	// Name identifies the trace (site profile or file name).
	Name string
	// Span is the nominal capture duration; records all satisfy
	// 0 <= Ts < Span.
	Span time.Duration
	// Records are sorted by Ts (ties keep insertion order).
	Records []Record
}

// Errors returned by trace operations.
var (
	ErrUnsorted = errors.New("trace: records not sorted by timestamp")
	ErrEmpty    = errors.New("trace: empty trace")
)

// Validate checks the trace invariants: sorted timestamps within
// [0, Span).
func (t *Trace) Validate() error {
	var prev time.Duration
	for i, r := range t.Records {
		if r.Ts < prev {
			return fmt.Errorf("%w: record %d at %v after %v", ErrUnsorted, i, r.Ts, prev)
		}
		if r.Ts < 0 || (t.Span > 0 && r.Ts >= t.Span) {
			return fmt.Errorf("trace: record %d timestamp %v outside [0, %v)", i, r.Ts, t.Span)
		}
		prev = r.Ts
	}
	return nil
}

// Sort orders records by timestamp (stable, preserving insertion order
// of co-timed records).
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Records, func(a, b Record) int {
		return cmp.Compare(a.Ts, b.Ts)
	})
}

// sortedByTs reports whether the records are already in timestamp
// order.
func sortedByTs(rs []Record) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i].Ts < rs[i-1].Ts {
			return false
		}
	}
	return true
}

// Filter returns a new trace containing only records accepted by keep.
// Name and Span are preserved. The output slice is preallocated at the
// input's length: filters usually keep most records, and a single
// over-sized allocation beats the log(n) growth copies of appending
// from nil.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := &Trace{Name: t.Name, Span: t.Span}
	out.Records = make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if keep(r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// ClipSpan truncates the trace in place to the given span: records at
// Ts >= span are dropped and Span becomes span. Records are assumed
// sorted (the Trace invariant), so the cut point is found by binary
// search and no record is copied — this is how a merged
// background+flood trace is clipped back to the background's span
// without the full Filter pass.
func (t *Trace) ClipSpan(span time.Duration) {
	n := sort.Search(len(t.Records), func(i int) bool {
		return t.Records[i].Ts >= span
	})
	t.Records = t.Records[:n]
	t.Span = span
}

// Split separates a bidirectional trace into its uni-directional
// halves, as Table 1 lists UNC-in/UNC-out and Auckland-in/Auckland-out.
func (t *Trace) Split() (in, out *Trace) {
	in = t.Filter(func(r Record) bool { return r.Dir == DirIn })
	in.Name = t.Name + "-in"
	out = t.Filter(func(r Record) bool { return r.Dir == DirOut })
	out.Name = t.Name + "-out"
	return in, out
}

// Flip returns a copy of the trace with every record's direction
// reversed: the same packets as seen from the other side of the
// Internet. A source-side flood trace (outgoing SYNs) flipped becomes
// the victim-side view (incoming SYNs) consumed by last-mile agents.
func (t *Trace) Flip() *Trace {
	out := &Trace{Name: t.Name + "-flipped", Span: t.Span}
	out.Records = make([]Record, len(t.Records))
	for i, r := range t.Records {
		r.Dir = flip(r.Dir)
		out.Records[i] = r
	}
	return out
}

// Merge combines two traces into a new sorted trace whose span is the
// larger of the two. It is how flood traffic is mixed into background
// traffic (Figure 6).
//
// Both inputs normally already satisfy the Trace sort invariant, so the
// combination is a single two-pointer pass — O(len(a)+len(b)) instead
// of the O(n log n) re-sort. Ties keep a's records before b's, exactly
// the order the append-then-stable-sort implementation produced.
// Unsorted inputs (hand-built traces) fall back to that implementation.
func Merge(name string, a, b *Trace) *Trace {
	out := &Trace{Name: name, Span: a.Span}
	if b.Span > out.Span {
		out.Span = b.Span
	}
	out.Records = make([]Record, 0, len(a.Records)+len(b.Records))
	if !sortedByTs(a.Records) || !sortedByTs(b.Records) {
		out.Records = append(out.Records, a.Records...)
		out.Records = append(out.Records, b.Records...)
		out.Sort()
		return out
	}
	i, j := 0, 0
	for i < len(a.Records) && j < len(b.Records) {
		if a.Records[i].Ts <= b.Records[j].Ts {
			out.Records = append(out.Records, a.Records[i])
			i++
		} else {
			out.Records = append(out.Records, b.Records[j])
			j++
		}
	}
	out.Records = append(out.Records, a.Records[i:]...)
	out.Records = append(out.Records, b.Records[j:]...)
	return out
}

// PeriodCounts is the per-observation-period aggregation SYN-dog
// consumes: outgoing SYNs and incoming SYN/ACKs per period of length
// t0 (Section 3.1).
type PeriodCounts struct {
	// T0 is the observation period.
	T0 time.Duration
	// OutSYN[i] counts outgoing SYNs in period i.
	OutSYN []float64
	// InSYNACK[i] counts incoming SYN/ACKs in period i.
	InSYNACK []float64
}

// Periods returns the number of complete periods.
func (p *PeriodCounts) Periods() int { return len(p.OutSYN) }

// AddFlood returns a new PeriodCounts overlaying per-period flood SYN
// counts on the receiver. The receiver is read-only and unchanged, so
// one aggregated background can back many concurrent flooded runs; the
// InSYNACK slice is shared (spoofed sources never answer, so a flood
// adds no SYN/ACKs) and only OutSYN is copied. Periods beyond the
// receiver's range are dropped, mirroring how a merged trace is clipped
// to the background span.
func (p *PeriodCounts) AddFlood(floodSYN []float64) *PeriodCounts {
	out := &PeriodCounts{
		T0:       p.T0,
		OutSYN:   make([]float64, len(p.OutSYN)),
		InSYNACK: p.InSYNACK,
	}
	copy(out.OutSYN, p.OutSYN)
	n := len(floodSYN)
	if n > len(out.OutSYN) {
		n = len(out.OutSYN)
	}
	for i := 0; i < n; i++ {
		out.OutSYN[i] += floodSYN[i]
	}
	return out
}

// Aggregate bins the trace into observation periods of length t0. The
// final partial period, if any, is dropped (the agent only acts on
// complete periods).
func (t *Trace) Aggregate(t0 time.Duration) (*PeriodCounts, error) {
	if t0 <= 0 {
		return nil, errors.New("trace: non-positive observation period")
	}
	if t.Span <= 0 {
		return nil, ErrEmpty
	}
	n := int(t.Span / t0)
	if n == 0 {
		return nil, fmt.Errorf("trace: span %v shorter than one period %v", t.Span, t0)
	}
	pc := &PeriodCounts{
		T0:       t0,
		OutSYN:   make([]float64, n),
		InSYNACK: make([]float64, n),
	}
	for _, r := range t.Records {
		idx := int(r.Ts / t0)
		if idx < 0 || idx >= n {
			continue
		}
		switch {
		case r.Dir == DirOut && r.Kind == packet.KindSYN:
			pc.OutSYN[idx]++
		case r.Dir == DirIn && r.Kind == packet.KindSYNACK:
			pc.InSYNACK[idx]++
		}
	}
	return pc, nil
}

// AggregateLastMile bins the trace into the victim-side pairing
// core.LastMileAgent consumes: OutSYN[i] holds the period's connection
// openings (incoming SYNs) and InSYNACK[i] its closings (outgoing FINs
// and RSTs). RSTs count as closes because they also terminate
// connections; counting them keeps reset-heavy benign traffic from
// looking like a flood. It is the only place the last-mile SYN-FIN
// pairing is computed.
func (t *Trace) AggregateLastMile(t0 time.Duration) (*PeriodCounts, error) {
	if t0 <= 0 {
		return nil, errors.New("trace: non-positive observation period")
	}
	if t.Span <= 0 {
		return nil, ErrEmpty
	}
	n := int(t.Span / t0)
	if n == 0 {
		return nil, fmt.Errorf("trace: span %v shorter than one period %v", t.Span, t0)
	}
	pc := &PeriodCounts{
		T0:       t0,
		OutSYN:   make([]float64, n),
		InSYNACK: make([]float64, n),
	}
	for _, r := range t.Records {
		idx := int(r.Ts / t0)
		if idx < 0 || idx >= n {
			continue
		}
		switch {
		case r.Dir == DirIn && r.Kind == packet.KindSYN:
			pc.OutSYN[idx]++
		case r.Dir == DirOut && (r.Kind == packet.KindFIN || r.Kind == packet.KindRST):
			pc.InSYNACK[idx]++
		}
	}
	return pc, nil
}

// CountKind returns how many records have the given kind and direction.
func (t *Trace) CountKind(dir Direction, kind packet.Kind) int {
	n := 0
	for _, r := range t.Records {
		if r.Dir == dir && r.Kind == kind {
			n++
		}
	}
	return n
}

// Summary describes a trace for Table 1-style reporting.
type Summary struct {
	Name        string
	Span        time.Duration
	Records     int
	OutSYN      int
	InSYNACK    int
	InSYN       int
	OutSYNACK   int
	Directional string // "Bi-directional" or "Uni-directional"
}

// Summarize computes the Table 1 row for this trace.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Name:      t.Name,
		Span:      t.Span,
		Records:   len(t.Records),
		OutSYN:    t.CountKind(DirOut, packet.KindSYN),
		InSYNACK:  t.CountKind(DirIn, packet.KindSYNACK),
		InSYN:     t.CountKind(DirIn, packet.KindSYN),
		OutSYNACK: t.CountKind(DirOut, packet.KindSYNACK),
	}
	hasIn := s.InSYNACK > 0 || s.InSYN > 0
	hasOut := s.OutSYN > 0 || s.OutSYNACK > 0
	if hasIn && hasOut {
		s.Directional = "Bi-directional"
	} else {
		s.Directional = "Uni-directional"
	}
	return s
}
