package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// renderAll renders an experiment's artifacts (text + CSV) into one
// byte slice so two executions can be compared exactly.
func renderAll(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	e, ok := LookupAny(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	arts, err := e.Func(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	for _, a := range arts {
		if err := a.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelMatchesSequential is the determinism contract of the
// worker pool: the same seed must produce byte-identical artifacts at
// Parallelism 1 and Parallelism 8, for the Monte-Carlo tables and the
// sensitivity figures alike.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"table2", "table3", "fig7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			seq := renderAll(t, id, Options{Seed: 5, Runs: 2, Fast: true, Parallelism: 1})
			par := renderAll(t, id, Options{Seed: 5, Runs: 2, Fast: true, Parallelism: 8})
			if !bytes.Equal(seq, par) {
				t.Errorf("parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}

func TestForEachRunsEveryItem(t *testing.T) {
	for _, parallelism := range []int{0, 1, 3, 16} {
		const n = 37
		var hits [n]atomic.Int64
		err := ForEach(parallelism, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("parallelism %d: item %d ran %d times", parallelism, i, got)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := ForEach(4, 10, func(i int) error {
		switch i {
		case 2:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
	if err := ForEach(4, 10, func(int) error { return nil }); err != nil {
		t.Errorf("clean pool returned %v", err)
	}
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("empty pool returned %v", err)
	}
}

func TestForEachRunsAllItemsDespiteError(t *testing.T) {
	// No early cancellation: a failing item must not stop later items
	// (the completed set would otherwise depend on scheduling), on one
	// worker as on several.
	for _, par := range []int{1, 2} {
		var ran atomic.Int64
		err := ForEach(par, 20, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("first item fails")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("parallelism %d: error swallowed", par)
		}
		if got := ran.Load(); got != 20 {
			t.Errorf("parallelism %d: ran %d items, want all 20", par, got)
		}
	}
}

func TestCollectPreservesIndexOrder(t *testing.T) {
	out, err := collect(8, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := collect(8, 4, func(i int) (int, error) {
		return 0, fmt.Errorf("item %d", i)
	}); err == nil {
		t.Error("collect swallowed error")
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	a := seedFor(1, "sweep", 42, 7)
	if b := seedFor(1, "sweep", 42, 7); a != b {
		t.Errorf("same identity, different seeds: %d vs %d", a, b)
	}
	seen := map[int64]string{}
	for base := int64(0); base < 3; base++ {
		for _, label := range []string{"sweep", "traceback"} {
			for v := uint64(0); v < 20; v++ {
				id := fmt.Sprintf("(%d,%s,%d)", base, label, v)
				s := seedFor(base, label, v)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
}

func TestNormalizeParallelism(t *testing.T) {
	if got := normalizeParallelism(0); got != DefaultParallelism() {
		t.Errorf("normalize(0) = %d, want %d", got, DefaultParallelism())
	}
	if got := normalizeParallelism(-3); got != DefaultParallelism() {
		t.Errorf("normalize(-3) = %d", got)
	}
	if got := normalizeParallelism(5); got != 5 {
		t.Errorf("normalize(5) = %d", got)
	}
}
