package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// ensureParallelHost raises GOMAXPROCS so multi-worker configurations
// resolve to real pools even on single-core hosts (EffectiveWorkers
// clamps to GOMAXPROCS at construction time), restoring it on cleanup.
// Tests that exercise the pool must call it before building engines.
func ensureParallelHost(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestEffectiveWorkers(t *testing.T) {
	ensureParallelHost(t, 8)
	cases := []struct {
		requested, n, want int
	}{
		{0, 16, 8},  // default: GOMAXPROCS
		{0, 4, 4},   // ... clamped to the shard count
		{4, 16, 4},  // explicit request honoured
		{16, 16, 8}, // request clamped to GOMAXPROCS
		{1, 16, 1},  // explicit serial
		{3, 1, 1},   // one shard → serial
		{5, 0, 1},   // no shards still floors at 1
	}
	for _, tc := range cases {
		if got := EffectiveWorkers(tc.requested, tc.n); got != tc.want {
			t.Errorf("EffectiveWorkers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
	// The 1-vCPU bench-host case behind the Fluid10MViewers/pool
	// regression: any worker request resolves to serial on a single-core
	// host.
	runtime.GOMAXPROCS(1)
	for _, requested := range []int{0, 4, 8} {
		if got := EffectiveWorkers(requested, 16); got != 1 {
			t.Errorf("GOMAXPROCS=1: EffectiveWorkers(%d, 16) = %d, want 1", requested, got)
		}
	}
}

func TestFanOutSerialSpawnsNoGoroutines(t *testing.T) {
	before := PoolSpawns()
	var calls [5]int
	FanOut(1, len(calls), func(i int) { calls[i]++ })
	var single int
	FanOut(8, 1, func(i int) { single++ }) // one shard → serial regardless of workers
	if got := PoolSpawns() - before; got != 0 {
		t.Fatalf("serial FanOut spawned %d pool goroutines, want 0", got)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("shard %d ran %d times, want 1", i, n)
		}
	}
	if single != 1 {
		t.Errorf("single shard ran %d times, want 1", single)
	}
}

func TestFanOutParallelCoversEveryShard(t *testing.T) {
	ensureParallelHost(t, 8)
	before := PoolSpawns()
	const shards = 100
	hits := make([]int, shards) // disjoint writes: the race detector guards the contract
	FanOut(4, shards, func(i int) { hits[i]++ })
	if got := PoolSpawns() - before; got != 4 {
		t.Errorf("FanOut(4, %d) spawned %d goroutines, want 4", shards, got)
	}
	for i, n := range hits {
		if n != 1 {
			t.Errorf("shard %d ran %d times, want 1", i, n)
		}
	}
}

// FanOutWorkers names each shard's worker: indices stay below the pool
// size, the serial path is worker 0, and no two shards run on one worker
// at the same time, so per-worker scratch is never shared.
func TestFanOutWorkersIndexesDisjointScratch(t *testing.T) {
	ensureParallelHost(t, 8)
	const shards = 200
	for _, workers := range []int{1, 3, 8} {
		var busy [8]atomic.Bool
		hits := make([]int, shards)
		var overlap atomic.Bool
		FanOutWorkers(workers, shards, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("workers %d: shard %d on worker %d", workers, i, w)
				return
			}
			if busy[w].Swap(true) {
				overlap.Store(true)
			}
			hits[i]++
			busy[w].Store(false)
		})
		if overlap.Load() {
			t.Errorf("workers %d: two shards ran on one worker at once", workers)
		}
		for i, n := range hits {
			if n != 1 {
				t.Errorf("workers %d: shard %d ran %d times, want 1", workers, i, n)
			}
		}
	}
}

// TestEventSerialFastPathSpawnsNoPool pins the satellite fix: on a
// single-core host (or with Workers=1) the event engine's channel
// stepping must run entirely on the calling goroutine — no pool handoff
// to pay for zero available parallelism.
func TestEventSerialFastPathSpawnsNoPool(t *testing.T) {
	ensureParallelHost(t, 1)
	cfg := multiChannelConfig(t, ClientServer, 6)
	cfg.Workers = 8 // any request resolves to serial under GOMAXPROCS=1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := PoolSpawns()
	s.RunUntil(1800)
	if got := PoolSpawns() - before; got != 0 {
		t.Errorf("serial-host run spawned %d pool goroutines, want 0", got)
	}
	if s.TotalUsers() == 0 && s.CloudBytesServed() == 0 {
		t.Error("run produced no activity")
	}
}
