package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

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
	e := newEmitter(span, 0)
	ref := &Trace{Span: span}
	var start time.Duration
	var id uint16
	for conn := 0; conn < 2000; conn++ {
		start += time.Duration(rng.Intn(3)) * time.Millisecond
		e.advance(start)
		n := 1 + rng.Intn(4)
		for k := 0; k < n; k++ {
			ts := start
			if k > 0 {
				ts += time.Duration(rng.Intn(20)) * time.Millisecond
			}
			r := Record{Ts: ts, Kind: packet.KindSYN, Dir: DirOut, SrcPort: id}
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
	ties := 0
	for i := range got {
		if got[i] != ref.Records[i] {
			t.Fatalf("record %d: got emission %d at %v, want emission %d at %v",
				i, got[i].SrcPort, got[i].Ts, ref.Records[i].SrcPort, ref.Records[i].Ts)
		}
		if i > 0 && got[i].Ts == got[i-1].Ts {
			ties++
		}
	}
	if ties < len(got)/4 {
		t.Fatalf("only %d of %d records tie their predecessor; the test lost its ties", ties, len(got))
	}
}
