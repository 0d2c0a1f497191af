package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// EffectiveWorkers resolves a requested worker count against the host and
// the shard count. 0 means GOMAXPROCS; the result is clamped to GOMAXPROCS
// (the fan-outs are CPU-bound, so more workers than processors buys only
// scheduling overhead) and to n (at most one worker per shard), and is at
// least 1. A result of 1 is the contract for "run serially, spawn
// nothing": every fan-out in the engines and the controller takes a
// goroutine-free fast path when the effective count is 1 — explicit
// Workers==1, a single-core host (GOMAXPROCS==1, the bench-host case where
// Fluid10MViewers/pool used to pay the pool handoff for zero parallelism),
// or a single shard (channels==1).
//
// The clamp reads GOMAXPROCS once, at backend/controller construction
// time; results never depend on it (worker-count invariance), only wall
// time does.
func EffectiveWorkers(requested, n int) int {
	w := requested
	p := runtime.GOMAXPROCS(0)
	if w == 0 || w > p {
		w = p
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// poolSpawns counts every goroutine FanOut has ever spawned, so tests can
// assert the serial fast path spawns none. Monotonic and global: tests
// read a before/after delta.
var poolSpawns atomic.Int64

// PoolSpawns returns the cumulative number of pool goroutines FanOut has
// spawned — a test instrument for pinning the serial fast path, not a
// production metric.
func PoolSpawns() int64 { return poolSpawns.Load() }

// FanOut runs fn(0) … fn(n-1) across a pool of `workers` goroutines that
// work-steal shard indices from a shared atomic counter — the pattern the
// event engine's channel stepping established, shared here by the fluid
// integrator's batch fan-out, its demand-plane rate reads, and the
// controller's per-channel snapshot/derive/forecast shards. fn must touch
// only shard-i state (plus read-only shared state); under that contract
// results are bit-identical for every worker count, because each shard's
// arithmetic is the exact serial sequence regardless of which worker runs
// it.
//
// With workers <= 1 (or a single shard) the indices run serially on the
// calling goroutine and nothing is spawned. Hot callers with a zero-alloc
// contract keep their own serial branch before building the closure, so
// the escaping fn literal is never constructed on that path.
func FanOut(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	FanOutWorkers(workers, n, func(_, i int) { fn(i) })
}

// FanOutWorkers is FanOut that also tells fn which worker runs the shard:
// fn(w, i) with w in [0, min(workers, n)), 0 on the serial path. No two
// calls with the same w overlap, so w can index per-worker scratch.
func FanOutWorkers(workers, n int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	poolSpawns.Add(int64(workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
