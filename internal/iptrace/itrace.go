package iptrace

import "math"

// This file holds the cost model of ICMP traceback ("iTrace", Bellovin
// [2] and the intention-driven variant [32]) — the other traceback
// family the paper's introduction cites. Instead of marking passing
// packets, every router independently samples forwarded packets with a
// small probability (the drafts suggest ~1/20000) and emits a separate
// ICMP traceback message to the packet's destination, identifying
// itself and its adjacency.
//
// Compared with packet marking, iTrace needs no header bits but adds
// traffic, and the victim needs at least one sample from *every*
// router on the path — a coupon-collector problem that makes long
// paths expensive at low sampling rates.

// DefaultITraceProbability is the draft-suggested sampling rate.
const DefaultITraceProbability = 1.0 / 20000

// ITraceExpectedPackets returns the coupon-collector estimate of the
// packets needed: each router reports per packet with probability p,
// so E[X] ≈ H(d)/p where H is the harmonic number — dominated by the
// slowest router, 1/p for the last coupon.
func ITraceExpectedPackets(pathLen int, p float64) float64 {
	if pathLen < 1 || p <= 0 || p >= 1 {
		return math.Inf(1)
	}
	h := 0.0
	for i := 1; i <= pathLen; i++ {
		h += 1 / float64(i)
	}
	return h / p
}
