package tcp

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eventsim"
	"repro/internal/packet"
)

var (
	clientAddr = netip.MustParseAddr("10.1.0.5")
	serverAddr = netip.MustParseAddr("10.2.0.1")
	spoofBase  = netip.MustParseAddr("203.0.113.0")
)

// wire connects endpoints through a fixed one-way delay, optionally
// dropping packets selected by the drop func.
type wire struct {
	sim   *eventsim.Sim
	delay time.Duration
	drop  func(seg packet.Segment) bool
}

func (w *wire) sendTo(deliver func(time.Duration, packet.Segment)) SendFunc {
	return func(seg packet.Segment) {
		if w.drop != nil && w.drop(seg) {
			return
		}
		w.sim.After(w.delay, func(now time.Duration) {
			deliver(now, seg)
		})
	}
}

func TestHandshakeSuccess(t *testing.T) {
	sim := eventsim.New()
	w := &wire{sim: sim, delay: 10 * time.Millisecond}

	var srv *Server
	var cli *Client
	var err error

	srv, err = NewServer(sim, serverAddr, 80,
		w.sendTo(func(now time.Duration, s packet.Segment) { cli.Deliver(now, s) }),
		ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err = NewClient(sim, clientAddr, 40000, serverAddr, 80, 7777,
		w.sendTo(func(now time.Duration, s packet.Segment) { srv.Deliver(now, s) }),
		ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var clientDone, serverDone time.Duration
	cli.OnEstablished = func(now time.Duration) { clientDone = now }
	srv.OnEstablished = func(now time.Duration, peer netip.Addr, port uint16) {
		serverDone = now
		if peer != clientAddr || port != 40000 {
			t.Errorf("established with %v:%d", peer, port)
		}
	}
	if err := cli.Connect(); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	if cli.State() != StateEstablished {
		t.Fatalf("client state = %v", cli.State())
	}
	if srv.Stats().Established != 1 {
		t.Fatalf("server established = %d", srv.Stats().Established)
	}
	// Client completes at 1 RTT (20ms), server at 1.5 RTT (30ms).
	if clientDone != 20*time.Millisecond {
		t.Errorf("client done at %v, want 20ms", clientDone)
	}
	if serverDone != 30*time.Millisecond {
		t.Errorf("server done at %v, want 30ms", serverDone)
	}
	if srv.BacklogLen() != 0 {
		t.Errorf("backlog not drained: %d", srv.BacklogLen())
	}
}

func TestClientSynRetransmissionRecovers(t *testing.T) {
	sim := eventsim.New()
	dropped := 0
	w := &wire{sim: sim, delay: time.Millisecond}
	w.drop = func(seg packet.Segment) bool {
		// Drop the first SYN only.
		if seg.Kind() == packet.KindSYN && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	var srv *Server
	var cli *Client
	srv, _ = NewServer(sim, serverAddr, 80,
		w.sendTo(func(now time.Duration, s packet.Segment) { cli.Deliver(now, s) }),
		ServerConfig{})
	cli, _ = NewClient(sim, clientAddr, 40000, serverAddr, 80, 1,
		w.sendTo(func(now time.Duration, s packet.Segment) { srv.Deliver(now, s) }),
		ClientConfig{})
	if err := cli.Connect(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if cli.State() != StateEstablished {
		t.Fatalf("client state = %v after retransmit", cli.State())
	}
	if dropped != 1 {
		t.Fatalf("drop hook fired %d times", dropped)
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	sim := eventsim.New()
	w := &wire{sim: sim, delay: time.Millisecond}
	w.drop = func(packet.Segment) bool { return true } // black hole
	cli, _ := NewClient(sim, clientAddr, 40000, serverAddr, 80, 1,
		w.sendTo(func(time.Duration, packet.Segment) {}),
		ClientConfig{SynRetries: 2, RTOBase: 3 * time.Second})
	var failedAt time.Duration
	cli.OnFailed = func(now time.Duration) { failedAt = now }
	if err := cli.Connect(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if cli.State() != StateFailed {
		t.Fatalf("state = %v, want FAILED", cli.State())
	}
	// RTO schedule: 3s (retry 1), +6s (retry 2), +12s (give up) = 21s.
	if failedAt != 21*time.Second {
		t.Errorf("failed at %v, want 21s", failedAt)
	}
}

func TestConnectTwiceFails(t *testing.T) {
	sim := eventsim.New()
	cli, _ := NewClient(sim, clientAddr, 1, serverAddr, 80, 1,
		func(packet.Segment) {}, ClientConfig{})
	if err := cli.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(); err == nil {
		t.Error("second Connect should fail")
	}
}

// spoofSyn sends one spoofed SYN from a distinct unreachable source.
func spoofSyn(srv *Server, now time.Duration, i int) {
	src := spoofBase
	for j := 0; j <= i; j++ {
		src = src.Next()
	}
	srv.Deliver(now, packet.Build(src, serverAddr, 1000, 80, uint32(i), 0, packet.FlagSYN))
}

func TestBacklogExhaustion(t *testing.T) {
	sim := eventsim.New()
	var sent []packet.Segment
	srv, err := NewServer(sim, serverAddr, 80,
		func(seg packet.Segment) { sent = append(sent, seg) },
		ServerConfig{Backlog: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		spoofSyn(srv, sim.Now(), i)
	}
	st := srv.Stats()
	if st.SynReceived != 10 {
		t.Errorf("SynReceived = %d, want 10", st.SynReceived)
	}
	if st.SynDropped != 6 {
		t.Errorf("SynDropped = %d, want 6 (backlog 4)", st.SynDropped)
	}
	if srv.BacklogLen() != 4 || !srv.BacklogFull() {
		t.Errorf("backlog = %d full=%v, want 4/true", srv.BacklogLen(), srv.BacklogFull())
	}
	// Each accepted SYN got exactly one immediate SYN/ACK.
	if len(sent) != 4 {
		t.Errorf("SYN/ACKs sent = %d, want 4", len(sent))
	}
}

func TestHalfOpenExpiryFreesBacklog(t *testing.T) {
	sim := eventsim.New()
	synacks := 0
	srv, _ := NewServer(sim, serverAddr, 80,
		func(seg packet.Segment) {
			if seg.Kind() == packet.KindSYNACK {
				synacks++
			}
		},
		ServerConfig{Backlog: 8})
	spoofSyn(srv, 0, 0)
	if srv.BacklogLen() != 1 {
		t.Fatal("half-open not queued")
	}
	sim.RunUntil(74 * time.Second)
	if srv.BacklogLen() != 1 {
		t.Error("half-open reaped before 75s")
	}
	sim.RunUntil(76 * time.Second)
	if srv.BacklogLen() != 0 {
		t.Error("half-open not reaped after 75s")
	}
	if srv.Stats().HalfOpenExpired != 1 {
		t.Errorf("HalfOpenExpired = %d, want 1", srv.Stats().HalfOpenExpired)
	}
	// Initial SYN/ACK + 2 retransmissions (at 3s and 9s).
	if synacks != 3 {
		t.Errorf("SYN/ACK transmissions = %d, want 3", synacks)
	}
}

func TestDuplicateSynResendsWithoutNewEntry(t *testing.T) {
	sim := eventsim.New()
	synacks := 0
	srv, _ := NewServer(sim, serverAddr, 80,
		func(seg packet.Segment) { synacks++ },
		ServerConfig{Backlog: 8})
	syn := packet.Build(clientAddr, serverAddr, 999, 80, 5, 0, packet.FlagSYN)
	srv.Deliver(0, syn)
	srv.Deliver(0, syn) // retransmitted SYN
	if srv.BacklogLen() != 1 {
		t.Errorf("backlog = %d, want 1", srv.BacklogLen())
	}
	if synacks != 2 {
		t.Errorf("SYN/ACKs = %d, want 2", synacks)
	}
}

func TestRstClearsHalfOpen(t *testing.T) {
	sim := eventsim.New()
	srv, _ := NewServer(sim, serverAddr, 80,
		func(packet.Segment) {}, ServerConfig{Backlog: 8})
	srv.Deliver(0, packet.Build(clientAddr, serverAddr, 999, 80, 5, 0, packet.FlagSYN))
	if srv.BacklogLen() != 1 {
		t.Fatal("no half-open created")
	}
	srv.Deliver(0, packet.Build(clientAddr, serverAddr, 999, 80, 0, 0, packet.FlagRST))
	if srv.BacklogLen() != 0 {
		t.Error("RST did not clear the half-open entry")
	}
	if srv.Stats().Resets != 1 {
		t.Errorf("Resets = %d, want 1", srv.Stats().Resets)
	}
}

func TestClientRstsUnexpectedSynAck(t *testing.T) {
	sim := eventsim.New()
	var out []packet.Segment
	cli, _ := NewClient(sim, clientAddr, 40000, serverAddr, 80, 1,
		func(seg packet.Segment) { out = append(out, seg) }, ClientConfig{})
	// SYN/ACK from an unrelated peer (client never contacted it).
	other := netip.MustParseAddr("192.0.2.9")
	cli.Deliver(0, packet.Build(other, clientAddr, 80, 50000, 1, 2, packet.FlagSYN|packet.FlagACK))
	if len(out) != 1 || out[0].Kind() != packet.KindRST {
		t.Fatalf("expected one RST, got %v", out)
	}
	if out[0].IP.Dst != other {
		t.Errorf("RST sent to %v, want %v", out[0].IP.Dst, other)
	}
}

func TestSynCookiesKeepBacklogEmpty(t *testing.T) {
	sim := eventsim.New()
	var out []packet.Segment
	srv, _ := NewServer(sim, serverAddr, 80,
		func(seg packet.Segment) { out = append(out, seg) },
		ServerConfig{Backlog: 2, SynCookies: true, CookieSecret: 99})
	for i := 0; i < 100; i++ {
		spoofSyn(srv, 0, i)
	}
	if srv.BacklogLen() != 0 {
		t.Errorf("cookie server queued %d entries, want 0", srv.BacklogLen())
	}
	if srv.Stats().SynDropped != 0 {
		t.Errorf("cookie server dropped %d SYNs, want 0", srv.Stats().SynDropped)
	}
	if len(out) != 100 {
		t.Errorf("SYN/ACKs = %d, want 100", len(out))
	}
}

func TestSynCookieHandshakeCompletes(t *testing.T) {
	sim := eventsim.New()
	w := &wire{sim: sim, delay: time.Millisecond}
	var srv *Server
	var cli *Client
	srv, _ = NewServer(sim, serverAddr, 80,
		w.sendTo(func(now time.Duration, s packet.Segment) { cli.Deliver(now, s) }),
		ServerConfig{SynCookies: true, CookieSecret: 424242})
	cli, _ = NewClient(sim, clientAddr, 40000, serverAddr, 80, 31337,
		w.sendTo(func(now time.Duration, s packet.Segment) { srv.Deliver(now, s) }),
		ClientConfig{})
	if err := cli.Connect(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if cli.State() != StateEstablished {
		t.Fatalf("client state = %v", cli.State())
	}
	if srv.Stats().Established != 1 {
		t.Errorf("server established = %d, want 1", srv.Stats().Established)
	}
	if srv.Stats().BadAcks != 0 {
		t.Errorf("BadAcks = %d, want 0", srv.Stats().BadAcks)
	}
}

func TestSynCookieRejectsForgedAck(t *testing.T) {
	sim := eventsim.New()
	srv, _ := NewServer(sim, serverAddr, 80, func(packet.Segment) {},
		ServerConfig{SynCookies: true, CookieSecret: 7})
	// ACK with a made-up acknowledgment number: no valid cookie.
	srv.Deliver(0, packet.Build(clientAddr, serverAddr, 999, 80, 6, 12345, packet.FlagACK))
	if srv.Stats().Established != 0 {
		t.Error("forged ACK established a connection")
	}
	if srv.Stats().BadAcks != 1 {
		t.Errorf("BadAcks = %d, want 1", srv.Stats().BadAcks)
	}
}

func TestServerIgnoresOtherPorts(t *testing.T) {
	sim := eventsim.New()
	srv, _ := NewServer(sim, serverAddr, 80, func(packet.Segment) {}, ServerConfig{})
	srv.Deliver(0, packet.Build(clientAddr, serverAddr, 999, 8080, 5, 0, packet.FlagSYN))
	if srv.Stats().SynReceived != 0 {
		t.Error("SYN to a different port was counted")
	}
}

func TestStaleAckCounted(t *testing.T) {
	sim := eventsim.New()
	srv, _ := NewServer(sim, serverAddr, 80, func(packet.Segment) {}, ServerConfig{})
	srv.Deliver(0, packet.Build(clientAddr, serverAddr, 999, 80, 5, 99, packet.FlagACK))
	if srv.Stats().BadAcks != 1 {
		t.Errorf("BadAcks = %d, want 1", srv.Stats().BadAcks)
	}
}

func TestNewEndpointValidation(t *testing.T) {
	sim := eventsim.New()
	if _, err := NewServer(nil, serverAddr, 80, func(packet.Segment) {}, ServerConfig{}); err == nil {
		t.Error("nil sim should fail")
	}
	if _, err := NewServer(sim, serverAddr, 80, nil, ServerConfig{}); err == nil {
		t.Error("nil send should fail")
	}
	if _, err := NewServer(sim, netip.Addr{}, 80, func(packet.Segment) {}, ServerConfig{}); err == nil {
		t.Error("invalid addr should fail")
	}
	if _, err := NewClient(nil, clientAddr, 1, serverAddr, 80, 1, func(packet.Segment) {}, ClientConfig{}); err == nil {
		t.Error("nil sim client should fail")
	}
}

func TestClientStateString(t *testing.T) {
	want := map[ClientState]string{
		StateClosed:      "CLOSED",
		StateSynSent:     "SYN_SENT",
		StateEstablished: "ESTABLISHED",
		StateFailed:      "FAILED",
		ClientState(77):  "state(77)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

// Property: the cookie validates for the exact 4-tuple+ISN and fails
// for any perturbation of the client ISN.
func TestCookieProperty(t *testing.T) {
	f := func(secret uint64, srcRaw, dstRaw [4]byte, sp, dp uint16, isn uint32, fuzz uint32) bool {
		src := netip.AddrFrom4(srcRaw)
		dst := netip.AddrFrom4(dstRaw)
		c1 := MakeCookie(secret, src, dst, sp, dp, isn)
		c2 := MakeCookie(secret, src, dst, sp, dp, isn)
		if c1 != c2 {
			return false // must be deterministic
		}
		if fuzz == 0 {
			return true
		}
		return MakeCookie(secret, src, dst, sp, dp, isn+fuzz) != c1 ||
			MakeCookie(secret^0x1, src, dst, sp, dp, isn) != c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
