package fluid

import (
	"testing"

	"cloudmedia/internal/sim"
)

// The fluid engine honours the same pacing contract as the event engine:
// the hook fires before each integration barrier, nondecreasing, capped
// by the RunUntil target, and never perturbs the run.
func TestFluidPacerCalledPerBarrier(t *testing.T) {
	cfg := smallConfig(t, sim.ClientServer)
	var barriers []float64
	var b *Backend
	cfg.Pacer = func(simNow float64) {
		if b.Now() >= simNow {
			t.Fatalf("pacer at %v called after state advanced to %v", simNow, b.Now())
		}
		barriers = append(barriers, simNow)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	const horizon = 600.0
	b.RunUntil(horizon)
	if len(barriers) == 0 {
		t.Fatal("pacer never called")
	}
	for i, bt := range barriers {
		if bt > horizon {
			t.Fatalf("barrier %v beyond the RunUntil target %v", bt, horizon)
		}
		if i > 0 && bt < barriers[i-1] {
			t.Fatalf("barriers went backwards: %v after %v", bt, barriers[i-1])
		}
	}
	if last := barriers[len(barriers)-1]; last != horizon {
		t.Fatalf("final barrier %v, want the target %v", last, horizon)
	}
}

func TestFluidPacerDoesNotPerturbRun(t *testing.T) {
	run := func(withPacer bool) (float64, float64) {
		cfg := smallConfig(t, sim.ClientServer)
		if withPacer {
			cfg.Pacer = func(float64) {}
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		provisionGenerously(t, b)
		b.RunUntil(3600)
		var users float64
		for c := 0; c < b.C; c++ {
			users += b.channelUsers(c)
		}
		return users, b.CloudBytesServed()
	}
	u0, by0 := run(false)
	u1, by1 := run(true)
	if u0 != u1 || by0 != by1 {
		t.Fatalf("pacer perturbed the run: (%v, %v) vs (%v, %v)", u0, by0, u1, by1)
	}
}

// The step loop's batched rate reads must not allocate once the scratch
// buffer exists: steady integration is the million-viewer hot path.
// Workers is pinned to 1: the serial path must be alloc-free, while the
// pool path pays its per-batch goroutine handoff (amortized over the
// steps of up to batchSeconds; see TestFluidBatchedInnerLoopAllocFree for
// the multi-step batch case).
func TestFluidSteadySteppingAllocFree(t *testing.T) {
	cfg := smallConfig(t, sim.ClientServer)
	cfg.Workers = 1
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	b.RunUntil(600) // warm up: feed matrices, departure scratch
	now := 600.0
	allocs := testing.AllocsPerRun(200, func() {
		now += 1
		b.RunUntil(now)
	})
	if allocs > 0 {
		t.Fatalf("steady fluid stepping allocates %.1f times per step", allocs)
	}
}
