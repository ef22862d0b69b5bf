package iptrace

import (
	"math"
	"testing"
)

func TestITraceExpectedPackets(t *testing.T) {
	// d=1: 1/p.
	if got := ITraceExpectedPackets(1, 0.01); math.Abs(got-100) > 1e-9 {
		t.Errorf("d=1 = %v, want 100", got)
	}
	// Grows with path length but only harmonically.
	e5 := ITraceExpectedPackets(5, 0.001)
	e25 := ITraceExpectedPackets(25, 0.001)
	if e25 <= e5 {
		t.Error("expected packets should grow with path length")
	}
	if e25 > 5*e5 {
		t.Errorf("iTrace growth should be harmonic, got %v vs %v", e25, e5)
	}
	if ITraceExpectedPackets(0, 0.01) < 1e300 {
		t.Error("degenerate path should be ~inf")
	}
	if ITraceExpectedPackets(5, 0) < 1e300 {
		t.Error("p=0 should be ~inf")
	}
}

func TestITraceVsPPMContrast(t *testing.T) {
	// At their canonical settings, both need hundreds-plus of attack
	// packets; at the draft 1/20000 sampling iTrace needs tens of
	// thousands more than PPM at p=1/25 — either way the victim waits,
	// which is the paper's point.
	ppm := ExpectedPackets(15, 1.0/25)
	itrace := ITraceExpectedPackets(15, DefaultITraceProbability)
	if itrace < ppm {
		t.Errorf("iTrace at 1/20000 (%v) should cost more packets than PPM (%v)", itrace, ppm)
	}
	if itrace < 20000 {
		t.Errorf("iTrace estimate %v implausibly small", itrace)
	}
}
