package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/packet"
)

// TestGenerateGolden pins the generator's bytes, ties included: any
// change to the RNG draw order, to what a connection emits or to the
// order records leave the generator changes a digest. The digests
// were recorded from the append-then-stable-sort generator.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		p    Profile
		span time.Duration // 0 keeps the profile's full span
		seed int64
		want string
	}{
		{LBL(), 10 * time.Minute, 1,
			"76a9360656cb7f28f9d2fe6d9df85098f496ef1a5b426da836a80a0b4a42325d"},
		{LBL(), 10 * time.Minute, 42,
			"14ce4e435bfb5065ef836f39d21d4214ae52f17cf18f82c20c80d447da536f5a"},
		{Harvard(), 10 * time.Minute, 1,
			"8d984e40640e5b675f04643bd82e5bc7d98aeceee07264fde25a30c8a3745548"},
		{Harvard(), 10 * time.Minute, 42,
			"fca37bf7564f936473138a7fd42a8f4e498d8eb0cc9ed670b94e549715284f87"},
		{UNC(), 2 * time.Minute, 1,
			"f537b048309e56a8af9a1b2cd7883c3d1e4d1c34f5d84de7fded3e8ab793d6dc"},
		{UNC(), 2 * time.Minute, 42,
			"ef0d54029a526472be430e3215cda05ad55cb250e1ca49ff84606e06b7cec07f"},
		{Auckland(), 20 * time.Minute, 1,
			"88ea081b4fee54c42f18afb0548a81981bfe0fa428f3c3a648902a4bd60a9ad5"},
		{Auckland(), 20 * time.Minute, 42,
			"e9b4e6c3358ae8d08bf9a7f594b66342f287112d8802a4db3448ebb9fc95d744"},
		{UNC(), 0, 5,
			"45a11643dbeb9c09f1606fceb14e12cf78ae0d069b125368dbf0fd77c2c2e445"},
		// Full spans, recorded from the single pending-heap emitter:
		// perfbench's sweep pair at its default seed (UNC seed 1,
		// Auckland seed 2), Auckland's three hours at a second seed,
		// and the two bidirectional sites, whose two emitters meet in
		// Merge.
		{UNC(), 0, 1,
			"769f54071b2d20e7435356d742782d117dbea0da8a433315c09def818e421a48"},
		{Auckland(), 0, 2,
			"e3a39efd44d2dc621923ff1fb2d5d2a22460e2fdf958fe86e389a4710d8c6d2d"},
		{Auckland(), 0, 1,
			"7242dee7f8a91369bb73c0c45e84d14a11d02e9409231fcdee8f308f5a2d022e"},
		{LBL(), 0, 1,
			"722b808caef9140464fd4a6e87fb85f8c5de4bad1b7eaf12237de47423c72fcc"},
		{Harvard(), 0, 1,
			"52038c80b28b60659c49f74bc4f5c0fbc8511533688f0e57b6d67874dbe8ccac"},
	}
	for _, c := range cases {
		p := c.p
		if c.span > 0 {
			p.Span = c.span
		}
		tr, err := Generate(p, c.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", p.Name, c.seed, err)
		}
		// The binary encoding covers the name, span and every field
		// of every record.
		h := sha256.New()
		if err := WriteBinary(h, tr); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s span %v seed %d (%d records): digest %s, want %s", p.Name, p.Span, c.seed, len(tr.Records), got, c.want)
		}
	}
}

// TestEmitterMatchesStableSort feeds the emitter connections on a
// coarse time grid, so timestamps tie within and across connections
// and some fall past the span, and checks its output against
// Trace.Sort of the same emission sequence.
func TestEmitterMatchesStableSort(t *testing.T) {
	const span = 2 * time.Second
	rng := rand.New(rand.NewSource(1))
	var conns []connEmission
	var start time.Duration
	for conn := 0; conn < 2000; conn++ {
		start += time.Duration(rng.Intn(3)) * time.Millisecond
		c := connEmission{start: start, ts: []time.Duration{start}}
		for k := rng.Intn(4); k > 0; k-- {
			c.ts = append(c.ts, start+time.Duration(rng.Intn(20))*time.Millisecond)
		}
		conns = append(conns, c)
	}
	if records, ties := checkEmitter(t, span, slotShift, conns); ties < records/4 {
		t.Fatalf("only %d of %d records tie their predecessor; the test lost its ties", ties, records)
	}
}

// connEmission is one connection fed to the emitter: its start and
// the timestamps it emits, in emission order, none before the start.
type connEmission struct {
	start time.Duration
	ts    []time.Duration
}

// calendarConns draws up to n connections over [0, span) that aim at
// the calendar's edges for 2^shift ns slots: starts that repeat, sit
// on slot boundaries or jump slots, and records at the current start,
// inside the slot being drained, on later slot boundaries, up to a
// span later, and at span-1 and span. draw(k) returns a value in
// [0, k); step is the typical gap between starts.
func calendarConns(draw func(int64) int64, n int, span, step time.Duration, shift uint) []connEmission {
	var conns []connEmission
	var start time.Duration
	for len(conns) < n {
		switch draw(10) {
		case 0: // the last connection's start again
		case 1:
			if b := (start>>shift + 1) << shift; b < span {
				start = b
			}
		case 2:
			start += time.Duration(draw(int64(20 * step)))
		default:
			start += time.Duration(draw(int64(2 * step)))
		}
		if start >= span {
			break
		}
		c := connEmission{start: start, ts: []time.Duration{start}}
		for k := draw(4); k > 0; k-- {
			var ts time.Duration
			switch draw(8) {
			case 0:
				ts = start
			case 1:
				end := min((start>>shift+1)<<shift, span)
				ts = start + time.Duration(draw(int64(end-start)))
			case 2:
				ts = (start>>shift + 1 + time.Duration(draw(3))) << shift
			case 3:
				ts = span - 1
			case 4:
				ts = span
			case 5:
				ts = start + time.Duration(draw(int64(span)))
			case 6:
				ts = c.ts[len(c.ts)-1]
			default:
				ts = start + time.Duration(draw(int64(4*step)))
			}
			c.ts = append(c.ts, ts)
		}
		conns = append(conns, c)
	}
	return conns
}

// checkEmitter feeds conns to an emitter over [0, span) with 2^shift
// ns slots and checks its output against Trace.Sort of the same
// emission sequence. It returns how many records it kept and how many
// of them tie their predecessor.
func checkEmitter(t *testing.T, span time.Duration, shift uint, conns []connEmission) (records, ties int) {
	t.Helper()
	e := newEmitter(span, 0, shift)
	ref := &Trace{Span: span}
	var id uint32
	for _, c := range conns {
		e.advance(c.start)
		for _, ts := range c.ts {
			// The ports carry the emission index, so a record that
			// leaves out of turn cannot compare equal.
			r := Record{Ts: ts, Kind: packet.KindSYN, Dir: DirOut, SrcPort: uint16(id), DstPort: uint16(id >> 16)}
			id++
			e.emit(r)
			if ts < span {
				ref.Records = append(ref.Records, r)
			}
		}
	}
	got := e.finish()
	ref.Sort()
	if len(got) != len(ref.Records) {
		t.Fatalf("emitter kept %d records, want %d", len(got), len(ref.Records))
	}
	for i := range got {
		if got[i] != ref.Records[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], ref.Records[i])
		}
		if i > 0 && got[i].Ts == got[i-1].Ts {
			ties++
		}
	}
	return len(got), ties
}

// TestEmitterCalendarEdges runs calendarConns' edge cases at the
// production slot width on a span that is not a multiple of it, at a
// wider slot and at one slot for the whole span, and at slots of 16 ns
// and 1 ns over spans of nanoseconds.
func TestEmitterCalendarEdges(t *testing.T) {
	for _, c := range []struct {
		span, step time.Duration
		shift      uint
	}{
		{10*time.Minute + 12345, 20 * time.Millisecond, slotShift},
		{10*time.Minute + 12345, 20 * time.Millisecond, 30},
		{10*time.Minute + 12345, 20 * time.Millisecond, 40},
		{1<<20 + 3, 40, 4},
		{5000, 2, 0},
	} {
		rng := rand.New(rand.NewSource(int64(c.shift) + 1))
		conns := calendarConns(rng.Int63n, 20000, c.span, c.step, c.shift)
		if records, ties := checkEmitter(t, c.span, c.shift, conns); ties < records/4 {
			t.Errorf("span %v shift %d: only %d of %d records tie their predecessor; the case lost its ties", c.span, c.shift, ties, records)
		}
	}
}

// FuzzEmitterMatchesStableSort drives calendarConns from the fuzz
// input: the span, the slot width and every choice of start and
// delay.
func FuzzEmitterMatchesStableSort(f *testing.F) {
	f.Add(uint16(5000), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint16(64), uint8(0), []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7})
	f.Add(uint16(65535), uint8(16), []byte{9, 200, 7, 3, 1, 250, 4, 4, 6, 1})
	f.Fuzz(func(t *testing.T, span uint16, shift uint8, data []byte) {
		sp := time.Duration(span) + 1
		draw := func(k int64) int64 {
			if len(data) == 0 || k <= 0 {
				return 0
			}
			v := int64(data[0])
			if len(data) > 1 {
				v |= int64(data[1]) << 8
			}
			data = data[min(2, len(data)):]
			return v % k
		}
		step := max(sp/64, 1)
		checkEmitter(t, sp, uint(shift%18), calendarConns(draw, len(data)/4, sp, step, uint(shift%18)))
	})
}

// TestRecordFitsCacheLine pins Record's layout at one 64-byte cache
// line: generated traces, ingest chunks and capture ring slots all
// scale with it.
func TestRecordFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 64 {
		t.Errorf("Record is %d bytes, want 64", size)
	}
}
