package experiment

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel execution engine behind every Monte-Carlo
// experiment: a bounded worker pool whose work items are fully
// independent, plus the deterministic seed derivation that makes
// parallel and sequential schedules produce bit-identical artifacts.
//
// The contract every caller follows:
//
//   - each work item derives its own RNG from seedFor (never shares a
//     *rand.Rand with another item), so randomness depends only on the
//     item's identity, not on which worker ran it first;
//   - each item writes only results[i] for its own index i;
//   - aggregation happens after the pool drains, in index order.
//
// Under that contract the artifact bytes are a pure function of the
// experiment seed, whatever Parallelism is.

// DefaultParallelism is the worker count used when a config leaves
// Parallelism at zero: one worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// normalizeParallelism maps the "unset" zero (and nonsense negatives)
// to DefaultParallelism.
func normalizeParallelism(p int) int {
	if p <= 0 {
		return DefaultParallelism()
	}
	return p
}

// ForEach runs fn(0), ..., fn(n-1) across at most parallelism workers
// (0 means DefaultParallelism) and returns the lowest-index error, if
// any. All items run even when one fails — results must not depend on
// scheduling, and an early cancel would make the set of completed
// items racy.
func ForEach(parallelism, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	parallelism = normalizeParallelism(parallelism)
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect runs fn for each index in parallel and returns the results
// in index order — the worker-pool shape of a Monte-Carlo repetition
// loop whose per-run outcomes are aggregated afterwards.
func collect[T any](parallelism, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(parallelism, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// seedFor derives a stable RNG seed for one unit of work from the
// experiment master seed and the item's identity (a label plus any
// distinguishing values, e.g. math.Float64bits(rate) and the run
// index). FNV-1a folds the identity; a splitmix64 finalizer
// decorrelates neighboring items so adjacent runs do not get
// correlated rand.Source streams.
func seedFor(base int64, label string, vals ...uint64) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(label))
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
