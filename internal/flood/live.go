package flood

import (
	"errors"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Slave is a compromised host inside one stub network that emits the
// flood on the master's command, mirroring the master/slave structure
// of TFN-style tools (Section 4.2).
type Slave struct {
	host    *netsim.Host
	victim  netip.Addr
	port    uint16
	pattern Pattern
	spoof   netip.Prefix
	rng     *rand.Rand

	sent uint64
}

// NewSlave binds a slave to a simulated host.
func NewSlave(host *netsim.Host, victim netip.Addr, port uint16, pattern Pattern, seed int64) (*Slave, error) {
	if host == nil || !victim.IsValid() || pattern == nil || pattern.Peak() <= 0 {
		return nil, ErrBadConfig
	}
	return &Slave{
		host:    host,
		victim:  victim,
		port:    port,
		pattern: pattern,
		spoof:   DefaultSpoofPrefix,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Sent returns how many flood SYNs this slave has emitted.
func (s *Slave) Sent() uint64 { return s.sent }

// start schedules the slave's emissions on sim from start for duration.
func (s *Slave) start(sim *eventsim.Sim, start, duration time.Duration) {
	times, err := Times(Config{
		Start:       start,
		Duration:    duration,
		Pattern:     s.pattern,
		Victim:      s.victim,
		VictimPort:  s.port,
		SpoofPrefix: s.spoof,
		Seed:        s.rng.Int63(),
	})
	if err != nil {
		// Config was validated in NewSlave; an error here is a bug.
		panic("flood: slave schedule: " + err.Error())
	}
	for _, at := range times {
		seq := s.rng.Uint32()
		sim.At(at, func(time.Duration) {
			s.sent++
			s.host.Send(packet.Build(
				SpoofedAddr(s.spoof, s.rng), s.victim,
				uint16(1024+s.rng.Intn(64000)), s.port,
				seq, 0, packet.FlagSYN))
		})
	}
}

// Master coordinates slaves: one "control message" starts every slave
// simultaneously, as the DDoS tools do.
type Master struct {
	slaves []*Slave
}

// NewMaster returns an empty coordinator.
func NewMaster() *Master { return &Master{} }

// Enlist registers a slave.
func (m *Master) Enlist(s *Slave) { m.slaves = append(m.slaves, s) }

// Slaves returns the number of enlisted slaves.
func (m *Master) Slaves() int { return len(m.slaves) }

// Launch schedules the flood on every slave.
func (m *Master) Launch(sim *eventsim.Sim, start, duration time.Duration) error {
	if len(m.slaves) == 0 {
		return errors.New("flood: master has no slaves")
	}
	if duration <= 0 {
		return ErrBadConfig
	}
	for _, s := range m.slaves {
		s.start(sim, start, duration)
	}
	return nil
}

// TotalSent sums flood SYNs across all slaves.
func (m *Master) TotalSent() uint64 {
	var total uint64
	for _, s := range m.slaves {
		total += s.Sent()
	}
	return total
}
