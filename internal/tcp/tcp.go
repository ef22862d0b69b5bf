// Package tcp implements the TCP connection-establishment substrate
// the paper's attack narrative depends on: a listening server with a
// finite backlog of half-open connections, SYN/ACK retransmission, the
// 75-second half-open give-up timer, RST handling, and the SYN-cookie
// defense used as a stateful-mitigation baseline.
//
// Only the parts of TCP relevant to SYN flooding are modeled — the
// three-way handshake, its timers, and reset semantics. There is no
// data transfer, flow control or congestion control: the detector
// under study never looks past the handshake.
//
// Endpoints plug into internal/netsim hosts: wire Server.Deliver (or
// Client.Deliver) into Host.OnPacket, and give the endpoint the host's
// Send func as its transmit path.
package tcp

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/eventsim"
	"repro/internal/packet"
)

// Defaults mirroring the classic BSD behavior described in the paper:
// a half-open connection is kept "for a period of up to the TCP
// connection timeout", dropped after the failure of two
// retransmissions, typically 75 seconds in total.
const (
	// DefaultBacklog is the default half-open queue capacity.
	DefaultBacklog = 128
	// DefaultSynAckRetries is how many times the server retransmits an
	// unacknowledged SYN/ACK before giving up.
	DefaultSynAckRetries = 2
	// DefaultHalfOpenTimeout is the total lifetime of a half-open
	// connection.
	DefaultHalfOpenTimeout = 75 * time.Second
	// DefaultSynRetries is how many times a client retransmits its SYN.
	DefaultSynRetries = 2
	// DefaultRTOBase is the initial retransmission timeout; it doubles
	// per retry (3s, 6s, 12s...).
	DefaultRTOBase = 3 * time.Second
	// DefaultAcceptInterval is the default pace at which the modeled
	// application drains the accept queue when AcceptBacklog is set —
	// one accept per interval, a busy-but-healthy server.
	DefaultAcceptInterval = 10 * time.Millisecond
)

// SendFunc transmits a segment into the network.
type SendFunc func(seg packet.Segment)

// connKey identifies a connection attempt from the server's view.
type connKey struct {
	addr netip.Addr
	port uint16
}

// halfOpen is one backlog entry: a connection in SYN_RCVD.
type halfOpen struct {
	key       connKey
	serverISN uint32
	clientISN uint32
	retries   int
	rto       eventsim.Timer
	expiry    eventsim.Timer
}

// ServerConfig parameterizes a Server. Zero fields take the package
// defaults.
type ServerConfig struct {
	Backlog         int
	SynAckRetries   int
	HalfOpenTimeout time.Duration
	RTOBase         time.Duration
	// SynCookies enables the stateless SYN-cookie defense: no backlog
	// entry is created; the connection state is encoded in the server
	// ISN and validated on the final ACK.
	SynCookies bool
	// CookieSecret keys the cookie MAC when SynCookies or
	// CookieOnOverflow is on.
	CookieSecret uint64
	// AcceptBacklog, when positive, enables the kernel's second queue:
	// a completed handshake moves the connection into a bounded accept
	// queue drained by the application at AcceptInterval. A full accept
	// queue drops the connection (ListenOverflows) — the symptom SREs
	// read off `netstat -s` as "times the listen queue of a socket
	// overflowed". Zero keeps the original flat model where the final
	// ACK establishes immediately.
	AcceptBacklog int
	// AcceptInterval is how often the modeled application accepts one
	// queued connection; zero takes DefaultAcceptInterval. Only
	// meaningful with AcceptBacklog > 0.
	AcceptInterval time.Duration
	// CookieOnOverflow models tcp_syncookies=1: the server runs
	// stateful until the SYN queue fills, then answers overflow SYNs
	// with stateless cookies instead of dropping them — each send
	// counted as a cookie activation.
	CookieOnOverflow bool
}

func (c *ServerConfig) applyDefaults() {
	if c.Backlog == 0 {
		c.Backlog = DefaultBacklog
	}
	if c.SynAckRetries == 0 {
		c.SynAckRetries = DefaultSynAckRetries
	}
	if c.HalfOpenTimeout == 0 {
		c.HalfOpenTimeout = DefaultHalfOpenTimeout
	}
	if c.RTOBase == 0 {
		c.RTOBase = DefaultRTOBase
	}
	if c.AcceptBacklog > 0 && c.AcceptInterval == 0 {
		c.AcceptInterval = DefaultAcceptInterval
	}
}

// ServerStats are the server's externally observable counters.
type ServerStats struct {
	// SynReceived counts all SYNs that arrived.
	SynReceived uint64
	// SynDropped counts SYNs rejected because the backlog was full —
	// the denial-of-service the flood aims for.
	SynDropped uint64
	// Established counts completed handshakes.
	Established uint64
	// HalfOpenExpired counts backlog entries reaped by the 75 s timer.
	HalfOpenExpired uint64
	// Resets counts RSTs received for half-open entries.
	Resets uint64
	// BadAcks counts final ACKs that matched no half-open entry and no
	// valid cookie.
	BadAcks uint64
	// Accepted counts connections the application drained from the
	// accept queue (two-queue mode only).
	Accepted uint64
	// ListenOverflows counts completed handshakes dropped because the
	// accept queue was full — the kernel's ListenOverflows counter.
	ListenOverflows uint64
	// CookieActivations counts overflow SYNs answered with a stateless
	// cookie under CookieOnOverflow — the kernel's SyncookiesSent.
	CookieActivations uint64
}

// Server is a passive TCP endpoint in LISTEN on one port.
type Server struct {
	sim  *eventsim.Sim
	addr netip.Addr
	port uint16
	send SendFunc
	cfg  ServerConfig

	backlog map[connKey]*halfOpen
	isn     uint32
	stats   ServerStats

	acceptQ     []connKey
	acceptArmed bool

	// OnEstablished, if set, fires when a handshake completes.
	OnEstablished func(now time.Duration, peer netip.Addr, peerPort uint16)
	// OnAccepted, if set, fires when the application drains a
	// connection from the accept queue (two-queue mode only).
	OnAccepted func(now time.Duration, peer netip.Addr, peerPort uint16)
	// OnQueueEvent, if set, observes every queue transition — SYN-queue
	// overflow, cookie activation, accept-queue overflow, accept.
	OnQueueEvent QueueObserver
}

// NewServer builds a listening endpoint.
func NewServer(sim *eventsim.Sim, addr netip.Addr, port uint16, send SendFunc, cfg ServerConfig) (*Server, error) {
	if sim == nil || send == nil {
		return nil, errors.New("tcp: server needs a simulation and a send path")
	}
	if !addr.IsValid() {
		return nil, errors.New("tcp: invalid server address")
	}
	cfg.applyDefaults()
	return &Server{
		sim:     sim,
		addr:    addr,
		port:    port,
		send:    send,
		cfg:     cfg,
		backlog: make(map[connKey]*halfOpen, cfg.Backlog),
		isn:     1,
	}, nil
}

// Stats returns a copy of the server counters.
func (s *Server) Stats() ServerStats { return s.stats }

// BacklogLen returns the number of half-open connections currently
// queued (always 0 with SYN cookies on).
func (s *Server) BacklogLen() int { return len(s.backlog) }

// BacklogFull reports whether a new SYN would be dropped.
func (s *Server) BacklogFull() bool { return len(s.backlog) >= s.cfg.Backlog }

// Deliver feeds one received segment to the server. Segments not
// addressed to the listening port are ignored.
func (s *Server) Deliver(now time.Duration, seg packet.Segment) {
	if seg.TCP.DstPort != s.port || seg.IP.Dst != s.addr {
		return
	}
	switch seg.Kind() {
	case packet.KindSYN:
		s.onSyn(now, seg)
	case packet.KindRST:
		s.onRst(seg)
	case packet.KindOther:
		if seg.TCP.Flags&packet.FlagACK != 0 {
			s.onAck(now, seg)
		}
	default:
		// FIN/SYN-ACK to a listener: ignored in this model.
	}
}

func (s *Server) onSyn(now time.Duration, seg packet.Segment) {
	s.stats.SynReceived++
	key := connKey{addr: seg.IP.Src, port: seg.TCP.SrcPort}

	if s.cfg.SynCookies {
		// Stateless path: encode everything in the ISN, keep nothing.
		cookie := MakeCookie(s.cfg.CookieSecret, seg.IP.Src, s.addr,
			seg.TCP.SrcPort, s.port, seg.TCP.Seq)
		s.send(packet.Build(s.addr, seg.IP.Src, s.port, seg.TCP.SrcPort,
			cookie, seg.TCP.Seq+1, packet.FlagSYN|packet.FlagACK))
		return
	}

	if ho, dup := s.backlog[key]; dup {
		// SYN retransmission for an existing attempt: re-send SYN/ACK.
		s.sendSynAck(ho)
		return
	}
	if len(s.backlog) >= s.cfg.Backlog {
		if s.cfg.CookieOnOverflow {
			// tcp_syncookies=1: the SYN queue is full, fall back to a
			// stateless cookie instead of dropping — service degrades
			// (no retransmission state) but survives.
			s.stats.CookieActivations++
			s.queueEvent(now, EventCookieActivated, key)
			cookie := MakeCookie(s.cfg.CookieSecret, seg.IP.Src, s.addr,
				seg.TCP.SrcPort, s.port, seg.TCP.Seq)
			s.send(packet.Build(s.addr, seg.IP.Src, s.port, seg.TCP.SrcPort,
				cookie, seg.TCP.Seq+1, packet.FlagSYN|packet.FlagACK))
			return
		}
		// The queue is exhausted: this is the victim's failure mode.
		s.stats.SynDropped++
		s.queueEvent(now, EventSynOverflow, key)
		return
	}
	ho := &halfOpen{key: key, serverISN: s.nextISN(), clientISN: seg.TCP.Seq}
	s.backlog[key] = ho
	s.sendSynAck(ho)
	s.armTimers(ho)
}

func (s *Server) sendSynAck(ho *halfOpen) {
	s.send(packet.Build(s.addr, ho.key.addr, s.port, ho.key.port,
		ho.serverISN, ho.clientISN+1, packet.FlagSYN|packet.FlagACK))
}

func (s *Server) armTimers(ho *halfOpen) {
	// Absolute give-up timer.
	ho.expiry = s.sim.After(s.cfg.HalfOpenTimeout, func(time.Duration) {
		if s.backlog[ho.key] == ho {
			s.dropHalfOpen(ho)
			s.stats.HalfOpenExpired++
		}
	})
	s.armRTO(ho, s.cfg.RTOBase)
}

func (s *Server) armRTO(ho *halfOpen, rto time.Duration) {
	ho.rto = s.sim.After(rto, func(time.Duration) {
		if s.backlog[ho.key] != ho {
			return
		}
		if ho.retries >= s.cfg.SynAckRetries {
			// "not closed until the failure of two retransmissions" —
			// the expiry timer will reap it; stop retransmitting.
			return
		}
		ho.retries++
		s.sendSynAck(ho)
		s.armRTO(ho, rto*2)
	})
}

func (s *Server) dropHalfOpen(ho *halfOpen) {
	ho.rto.Cancel()
	ho.expiry.Cancel()
	delete(s.backlog, ho.key)
}

func (s *Server) onRst(seg packet.Segment) {
	key := connKey{addr: seg.IP.Src, port: seg.TCP.SrcPort}
	if ho, ok := s.backlog[key]; ok {
		// "The arrival of RST causes the connection to be reset,
		// foiling the flooding attack."
		s.dropHalfOpen(ho)
		s.stats.Resets++
	}
}

func (s *Server) onAck(now time.Duration, seg packet.Segment) {
	key := connKey{addr: seg.IP.Src, port: seg.TCP.SrcPort}

	if s.cfg.SynCookies {
		want := MakeCookie(s.cfg.CookieSecret, seg.IP.Src, s.addr,
			seg.TCP.SrcPort, s.port, seg.TCP.Seq-1)
		if seg.TCP.Ack-1 == want {
			s.handshakeComplete(now, key)
		} else {
			s.stats.BadAcks++
		}
		return
	}

	if ho, ok := s.backlog[key]; ok {
		if seg.TCP.Ack != ho.serverISN+1 {
			s.stats.BadAcks++
			return
		}
		s.dropHalfOpen(ho)
		s.handshakeComplete(now, key)
		return
	}
	if s.cfg.CookieOnOverflow {
		// No half-open entry: this ACK may answer a cookie SYN/ACK sent
		// while the SYN queue was full.
		want := MakeCookie(s.cfg.CookieSecret, seg.IP.Src, s.addr,
			seg.TCP.SrcPort, s.port, seg.TCP.Seq-1)
		if seg.TCP.Ack-1 == want {
			s.handshakeComplete(now, key)
			return
		}
	}
	s.stats.BadAcks++
}

// handshakeComplete routes a finished three-way handshake: straight to
// ESTABLISHED in the flat model, through the bounded accept queue in
// two-queue mode.
func (s *Server) handshakeComplete(now time.Duration, key connKey) {
	if s.cfg.AcceptBacklog <= 0 {
		s.established(now, key)
		return
	}
	if len(s.acceptQ) >= s.cfg.AcceptBacklog {
		// The application is not draining fast enough: the kernel
		// drops the fully established connection. This — not SYN-queue
		// pressure — is the moment a legitimate client with a completed
		// handshake loses service.
		s.stats.ListenOverflows++
		s.queueEvent(now, EventAcceptOverflow, key)
		return
	}
	s.established(now, key)
	s.acceptQ = append(s.acceptQ, key)
	s.armAccept()
}

func (s *Server) established(now time.Duration, key connKey) {
	s.stats.Established++
	if s.OnEstablished != nil {
		s.OnEstablished(now, key.addr, key.port)
	}
}

func (s *Server) nextISN() uint32 {
	s.isn += 64000 // RFC-793-style coarse ISN advance; value is arbitrary
	return s.isn
}

// MakeCookie computes a SYN cookie: a deterministic MAC over the
// 4-tuple and the client ISN under a secret. The real Linux
// implementation also encodes MSS bits and a timestamp; this model
// keeps the essential property — the server can validate the final ACK
// without having stored any state.
func MakeCookie(secret uint64, src, dst netip.Addr, srcPort, dstPort uint16, clientISN uint32) uint32 {
	h := secret ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	s4, d4 := src.As4(), dst.As4()
	mix(uint64(s4[0])<<24 | uint64(s4[1])<<16 | uint64(s4[2])<<8 | uint64(s4[3]))
	mix(uint64(d4[0])<<24 | uint64(d4[1])<<16 | uint64(d4[2])<<8 | uint64(d4[3]))
	mix(uint64(srcPort)<<16 | uint64(dstPort))
	mix(uint64(clientISN))
	return uint32(h ^ h>>32)
}

// ClientState is the client endpoint's connection state.
type ClientState uint8

// Client states (subset of Figure 1 relevant to establishment).
const (
	StateClosed ClientState = iota
	StateSynSent
	StateEstablished
	StateFailed
)

// String implements fmt.Stringer.
func (s ClientState) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN_SENT"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	SynRetries int
	RTOBase    time.Duration
}

func (c *ClientConfig) applyDefaults() {
	if c.SynRetries == 0 {
		c.SynRetries = DefaultSynRetries
	}
	if c.RTOBase == 0 {
		c.RTOBase = DefaultRTOBase
	}
}

// Client is an active opener: one Client per connection attempt.
type Client struct {
	sim      *eventsim.Sim
	addr     netip.Addr
	port     uint16
	peer     netip.Addr
	peerPort uint16
	send     SendFunc
	cfg      ClientConfig

	state   ClientState
	isn     uint32
	retries int
	rto     eventsim.Timer

	// OnEstablished and OnFailed report the outcome, if set.
	OnEstablished func(now time.Duration)
	OnFailed      func(now time.Duration)
}

// NewClient builds a client for one connection attempt; call Connect
// to start the handshake.
func NewClient(sim *eventsim.Sim, addr netip.Addr, port uint16, peer netip.Addr, peerPort uint16, isn uint32, send SendFunc, cfg ClientConfig) (*Client, error) {
	if sim == nil || send == nil {
		return nil, errors.New("tcp: client needs a simulation and a send path")
	}
	cfg.applyDefaults()
	return &Client{
		sim: sim, addr: addr, port: port,
		peer: peer, peerPort: peerPort,
		send: send, cfg: cfg, isn: isn,
	}, nil
}

// State returns the current connection state.
func (c *Client) State() ClientState { return c.state }

// Connect sends the initial SYN and arms the retransmission timer.
// Calling Connect twice is an error.
func (c *Client) Connect() error {
	if c.state != StateClosed {
		return fmt.Errorf("tcp: Connect in state %v", c.state)
	}
	c.state = StateSynSent
	c.sendSyn()
	c.armRTO(c.cfg.RTOBase)
	return nil
}

func (c *Client) sendSyn() {
	c.send(packet.Build(c.addr, c.peer, c.port, c.peerPort, c.isn, 0, packet.FlagSYN))
}

func (c *Client) armRTO(rto time.Duration) {
	c.rto = c.sim.After(rto, func(now time.Duration) {
		if c.state != StateSynSent {
			return
		}
		if c.retries >= c.cfg.SynRetries {
			c.state = StateFailed
			if c.OnFailed != nil {
				c.OnFailed(now)
			}
			return
		}
		c.retries++
		c.sendSyn()
		c.armRTO(rto * 2)
	})
}

// Deliver feeds one received segment to the client.
func (c *Client) Deliver(now time.Duration, seg packet.Segment) {
	if seg.TCP.DstPort != c.port || seg.IP.Src != c.peer || seg.TCP.SrcPort != c.peerPort {
		// Not for this connection. A SYN/ACK for a connection this
		// host never initiated gets a RST — the behavior that makes
		// reachable spoofed sources foil the attack.
		if seg.Kind() == packet.KindSYNACK && seg.IP.Dst == c.addr {
			c.send(packet.Build(c.addr, seg.IP.Src, seg.TCP.DstPort, seg.TCP.SrcPort,
				seg.TCP.Ack, 0, packet.FlagRST))
		}
		return
	}
	switch seg.Kind() {
	case packet.KindSYNACK:
		if c.state != StateSynSent || seg.TCP.Ack != c.isn+1 {
			return
		}
		c.rto.Cancel()
		c.state = StateEstablished
		c.send(packet.Build(c.addr, c.peer, c.port, c.peerPort,
			c.isn+1, seg.TCP.Seq+1, packet.FlagACK))
		if c.OnEstablished != nil {
			c.OnEstablished(now)
		}
	case packet.KindRST:
		if c.state == StateSynSent {
			c.rto.Cancel()
			c.state = StateFailed
			if c.OnFailed != nil {
				c.OnFailed(now)
			}
		}
	}
}
