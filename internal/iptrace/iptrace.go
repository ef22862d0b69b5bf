// Package iptrace implements probabilistic packet marking (PPM) IP
// traceback in the style of Savage et al. [23] — the "expensive IP
// traceback" that victim-side defenses must fall back on and that
// SYN-dog's source-side placement renders unnecessary (Section 1).
//
// The package exists to quantify that comparison: the ablation
// experiment "ablation-traceback" measures how many attack packets a
// victim must collect before edge-sampling PPM reconstructs the attack
// path, versus SYN-dog's fixed three-observation-period detection at
// the source, and prints the ICMP traceback estimate (itrace.go)
// beside it.
//
// Edge sampling (Savage et al., SIGCOMM 2000): every router, with
// probability p, overwrites the mark with (start=self, distance=0);
// otherwise, if the mark's distance is 0 it writes itself as the edge
// end; in all no-mark cases it increments distance. The victim
// collects (start, end, distance) samples; sorting edges by distance
// reconstructs the router path. The expected number of packets for a
// path of length d is bounded by E[X] < ln(d) / (p(1-p)^(d-1)).
package iptrace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RouterID identifies a router on the attack path.
type RouterID uint32

// Mark is the marking field an IP packet would carry (squeezed into
// the 16-bit ID field plus overloaded fragment bits in the real
// scheme; modeled as a struct here).
type Mark struct {
	Start    RouterID
	End      RouterID
	Distance uint8
	// valid distinguishes "never marked" packets.
	valid bool
}

// Valid reports whether any router marked the packet.
func (m Mark) Valid() bool { return m.valid }

// Path is an ordered sequence of routers from the attacker's first
// hop to the victim's last hop.
type Path []RouterID

// Errors.
var (
	ErrBadProbability = errors.New("iptrace: marking probability outside (0,1)")
	ErrEmptyPath      = errors.New("iptrace: empty path")
	ErrIncomplete     = errors.New("iptrace: reconstruction incomplete")
)

// Marker simulates the routers of one attack path applying edge
// sampling to every packet traversing them.
type Marker struct {
	path Path
	p    float64
	rng  *rand.Rand
}

// NewMarker builds a marker for the path with marking probability p.
func NewMarker(path Path, p float64, rng *rand.Rand) (*Marker, error) {
	if len(path) == 0 {
		return nil, ErrEmptyPath
	}
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return nil, ErrBadProbability
	}
	return &Marker{path: append(Path(nil), path...), p: p, rng: rng}, nil
}

// Forward passes one packet along the whole path and returns the mark
// it arrives with at the victim.
func (m *Marker) Forward() Mark {
	var mark Mark
	var sinceMark uint8
	for _, router := range m.path {
		if m.rng.Float64() < m.p {
			mark = Mark{Start: router, Distance: 0, valid: true}
			sinceMark = 0
			continue
		}
		if mark.valid {
			if sinceMark == 0 {
				mark.End = router
			}
			sinceMark++
			if mark.Distance < math.MaxUint8 {
				mark.Distance++
			}
		}
	}
	return mark
}

// Collector is the victim-side reconstruction state.
type Collector struct {
	// edges[distance] -> set of (start,end) pairs seen at that distance.
	edges map[uint8]map[[2]RouterID]int
	seen  uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{edges: make(map[uint8]map[[2]RouterID]int)}
}

// Ingest folds one received mark into the collector.
func (c *Collector) Ingest(m Mark) {
	c.seen++
	if !m.Valid() {
		return
	}
	byEdge, ok := c.edges[m.Distance]
	if !ok {
		byEdge = make(map[[2]RouterID]int)
		c.edges[m.Distance] = byEdge
	}
	byEdge[[2]RouterID{m.Start, m.End}]++
}

// Packets returns how many packets have been ingested.
func (c *Collector) Packets() uint64 { return c.seen }

// Reconstruct attempts to rebuild the attack path. It returns
// ErrIncomplete until every hop distance from 0 to the farthest seen
// is covered by a sampled edge; spurious duplicates at one distance
// are resolved toward the most frequently sampled edge (the true edge
// dominates in expectation).
func (c *Collector) Reconstruct() (Path, error) {
	if len(c.edges) == 0 {
		return nil, ErrIncomplete
	}
	distances := make([]int, 0, len(c.edges))
	for d := range c.edges {
		distances = append(distances, int(d))
	}
	sort.Ints(distances)
	// Every distance from 0..max must be present, else a hop is
	// missing and the chain cannot be stitched.
	maxD := distances[len(distances)-1]
	if len(distances) != maxD+1 || distances[0] != 0 {
		return nil, ErrIncomplete
	}
	// The farthest mark (distance maxD) identifies the attacker-side
	// edge; distance 0 the victim-side edge. Walk far to near.
	path := make(Path, 0, maxD+2)
	for d := maxD; d >= 0; d-- {
		start, end := c.dominantEdge(uint8(d))
		if len(path) == 0 {
			path = append(path, start)
		} else if path[len(path)-1] != start {
			// Chain mismatch: the dominant edge does not continue the
			// path; reconstruction is not yet trustworthy.
			return nil, ErrIncomplete
		}
		if end != 0 {
			path = append(path, end)
		}
	}
	return path, nil
}

// dominantEdge returns the most sampled (start, end) at a distance.
func (c *Collector) dominantEdge(d uint8) (RouterID, RouterID) {
	var best [2]RouterID
	bestN := -1
	for edge, n := range c.edges[d] {
		if n > bestN {
			best = edge
			bestN = n
		}
	}
	return best[0], best[1]
}

// ExpectedPackets returns Savage et al.'s bound on the expected number
// of packets the victim needs for full path reconstruction:
//
//	E[X] < ln(d) / (p (1-p)^(d-1))
func ExpectedPackets(pathLen int, p float64) float64 {
	if pathLen < 1 || p <= 0 || p >= 1 {
		return math.Inf(1)
	}
	d := float64(pathLen)
	if pathLen == 1 {
		// ln(1) = 0 underestimates; one marked packet suffices on
		// average after 1/p tries.
		return 1 / p
	}
	return math.Log(d) / (p * math.Pow(1-p, d-1))
}

// Campaign measures the packets-to-reconstruction for one simulated
// attack path.
type Campaign struct {
	Marker    *Marker
	Collector *Collector
}

// NewCampaign wires a marker and fresh collector.
func NewCampaign(path Path, p float64, rng *rand.Rand) (*Campaign, error) {
	m, err := NewMarker(path, p, rng)
	if err != nil {
		return nil, err
	}
	return &Campaign{Marker: m, Collector: NewCollector()}, nil
}

// PacketsToReconstruct runs packets through the path until the
// collector reconstructs it exactly, or budget packets have been
// spent. It returns the packet count and whether reconstruction
// succeeded.
func (c *Campaign) PacketsToReconstruct(budget int) (int, bool) {
	want := c.Marker.path
	for i := 1; i <= budget; i++ {
		c.Collector.Ingest(c.Marker.Forward())
		// Reconstruction attempts are cheap relative to the simulated
		// network cost; check every 10 packets once the minimum
		// possible sample set exists.
		if i%10 != 0 && i != budget {
			continue
		}
		got, err := c.Collector.Reconstruct()
		if err != nil {
			continue
		}
		if pathsEqual(got, want) {
			return i, true
		}
	}
	return budget, false
}

func pathsEqual(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LinearPath builds the path r1 -> r2 -> ... -> rn.
func LinearPath(n int) (Path, error) {
	if n < 1 {
		return nil, ErrEmptyPath
	}
	p := make(Path, n)
	for i := range p {
		p[i] = RouterID(i + 1)
	}
	return p, nil
}

// String renders the path.
func (p Path) String() string {
	s := ""
	for i, r := range p {
		if i > 0 {
			s += "->"
		}
		s += fmt.Sprintf("R%d", r)
	}
	return s
}
