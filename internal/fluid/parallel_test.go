package fluid

import (
	"reflect"
	"runtime"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// ensureParallelHost raises GOMAXPROCS so multi-worker configurations
// resolve to real pools even on single-core hosts (sim.EffectiveWorkers
// clamps to GOMAXPROCS at construction time), restoring it on cleanup.
func ensureParallelHost(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// paperConfig mirrors stack.DefaultSpec's engine-facing half (6
// Zipf channels with diurnal arrivals and flash crowds, 8×75 s chunks, VCR
// jumps every 225 s) without importing the experiments package — the
// paper-figure scenario the worker-count invariance contract is pinned on.
func paperConfig(t *testing.T, mode sim.Mode, workers int) sim.Config {
	t.Helper()
	wl := workload.Default()
	wl.Channels = 6
	wl.ZipfExponent = 0.8
	wl.BaseArrivalRate = 0.6
	wl.JumpMeanSeconds = 225
	transfer, err := viewing.SequentialWithJumps(8, 0.9, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Mode: mode,
		Channel: queueing.Config{
			Chunks:          8,
			PlaybackRate:    50e3,
			ChunkSeconds:    75,
			VMBandwidth:     cloud.DefaultVMBandwidth,
			EntryFirstChunk: 0.7,
			SlotsPerVM:      5,
		},
		Workload: wl,
		Transfer: transfer,
		Workers:  workers,
		Seed:     42,
	}
}

// fluidState is the complete observable state of a run, snapshotted for
// exact comparison across worker counts.
type fluidState struct {
	Playing, Waiting, Owners []float64
	CloudBytes, Smooth       []float64
	Arrivals                 []float64
	Completed, Jumped        [][]float64
	Quality                  sim.QualitySample
	TotalUsers               int
	TotalServed              float64
	TotalCap                 float64
}

func snapshot(b *Backend) fluidState {
	st := fluidState{
		Playing:     append([]float64(nil), b.playing...),
		Waiting:     append([]float64(nil), b.waiting...),
		Owners:      append([]float64(nil), b.owners...),
		CloudBytes:  append([]float64(nil), b.cloudBytesServed...),
		Smooth:      append([]float64(nil), b.smooth...),
		Quality:     b.SampleQuality(),
		TotalUsers:  b.TotalUsers(),
		TotalServed: b.CloudBytesServed(),
		TotalCap:    b.TotalCloudCapacity(),
	}
	for c := 0; c < b.C; c++ {
		st.Arrivals = append(st.Arrivals, b.feeds[c].arrivals)
		st.Completed = append(st.Completed, append([]float64(nil), b.feeds[c].completed...))
		st.Jumped = append(st.Jumped, append([]float64(nil), b.feeds[c].jumped...))
	}
	return st
}

// runWithWorkers integrates the paper scenario for six simulated hours with
// mid-run capacity writes (the controller's rhythm) and returns the full
// final state.
func runWithWorkers(t *testing.T, mode sim.Mode, workers int) fluidState {
	t.Helper()
	b, err := New(paperConfig(t, mode, workers))
	if err != nil {
		t.Fatal(err)
	}
	provision := func(scale float64) func(float64) {
		return func(float64) {
			for c := 0; c < b.Channels(); c++ {
				for j := 0; j < b.ChannelConfig().Chunks; j++ {
					if err := b.SetCloudCapacity(c, j, scale*(1+float64(c))*100e3); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
	provision(1)(0)
	// Re-provision hourly, like the controller would, so the invariance
	// check covers capacity writes interleaved with parallel integration.
	if err := b.ScheduleRepeating(3600, 3600, func(now float64) { provision(now / 7200)(now) }); err != nil {
		t.Fatal(err)
	}
	b.RunUntil(6 * 3600)
	return snapshot(b)
}

// TestFluidParallelSteppingMatchesSerial pins the tentpole guarantee: the
// fluid engine's results are bit-identical for every worker count. Every
// float of engine state must match exactly — parallelism is a throughput
// knob, never a behaviour knob.
func TestFluidParallelSteppingMatchesSerial(t *testing.T) {
	ensureParallelHost(t, 8) // resolve multi-worker configs to real pools on any host
	for _, mode := range []sim.Mode{sim.ClientServer, sim.P2P} {
		serial := runWithWorkers(t, mode, 1)
		if serial.TotalUsers == 0 {
			t.Fatalf("mode %v: serial run produced no viewers", mode)
		}
		for _, workers := range []int{4, 8} {
			parallel := runWithWorkers(t, mode, workers)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("mode %v: Workers=%d state diverged from serial", mode, workers)
			}
		}
	}
}

// TestFluidParallelOnArrivalsContract documents and enforces the hook
// contract the event engine pins: OnArrivals calls for one channel are
// serialized (times strictly nondecreasing per channel), while different
// channels may call concurrently from the pool workers — so a per-channel
// observer needs no locking. Run under -race (make race / CI) this is the
// fluid pool's data-race canary.
func TestFluidParallelOnArrivalsContract(t *testing.T) {
	ensureParallelHost(t, 8)
	cfg := paperConfig(t, sim.ClientServer, 4)
	type channelLog struct {
		times []float64
		mass  float64
	}
	logs := make([]channelLog, cfg.Workload.Channels)
	cfg.OnArrivals = func(channel int, at, n float64) {
		// Per-channel state only, no mutex: exactly what the contract
		// permits. The race detector fails this test if two workers ever
		// call for the same channel concurrently.
		l := &logs[channel]
		l.times = append(l.times, at)
		l.mass += n
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b.Channels(); c++ {
		for j := 0; j < b.ChannelConfig().Chunks; j++ {
			if err := b.SetCloudCapacity(c, j, 1e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.RunUntil(2 * 3600)
	for c := range logs {
		if logs[c].mass <= 0 {
			t.Errorf("channel %d: no arrival mass observed", c)
		}
		for i := 1; i < len(logs[c].times); i++ {
			if logs[c].times[i] < logs[c].times[i-1] {
				t.Fatalf("channel %d: hook times went backwards: %v after %v",
					c, logs[c].times[i], logs[c].times[i-1])
			}
		}
	}
}

// TestFluidBatchedInnerLoopAllocFree pins AllocsPerRun == 0 on the batched
// multi-step path: one RunUntil stride spans several full batches
// (batchSeconds of steps each), so the measurement covers integrateTo's
// batch assembly, fillRates' serial demand reads, runBatch's serial
// dispatch, and every fused stepChannel step in between. Workers=1
// isolates the inner loop from the pool's per-batch goroutine handoff,
// which is the one deliberate allocation of the parallel path (and is why
// runBatch branches serial before building its closure).
func TestFluidBatchedInnerLoopAllocFree(t *testing.T) {
	cfg := paperConfig(t, sim.P2P, 1)
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b.Channels(); c++ {
		for j := 0; j < b.ChannelConfig().Chunks; j++ {
			if err := b.SetCloudCapacity(c, j, 1e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	b.RunUntil(1200) // warm up feeds and scratch
	now := 1200.0
	const stride = 3 * batchSeconds // several full batches per measured run
	allocs := testing.AllocsPerRun(20, func() {
		now += stride
		b.RunUntil(now)
	})
	if allocs > 0 {
		t.Fatalf("batched stepping allocates %.1f times per %d s stride", allocs, stride)
	}
}

// TestFluidSerialFastPathSpawnsNoPool pins the satellite fix for the
// Fluid10MViewers/pool regression: when the effective worker count is 1 —
// explicit Workers=1, or any worker request on a single-core host — both
// fluid fan-outs (the demand-plane rate reads and the channel batch) run
// entirely on the calling goroutine, with no pool handoff to pay for zero
// available parallelism.
func TestFluidSerialFastPathSpawnsNoPool(t *testing.T) {
	cases := []struct {
		name    string
		procs   int // GOMAXPROCS during construction and run
		workers int
	}{
		{"workers=1", 8, 1},
		{"single-core-host", 1, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ensureParallelHost(t, tc.procs)
			b, err := New(paperConfig(t, sim.ClientServer, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			before := sim.PoolSpawns()
			b.RunUntil(2 * 3600)
			if got := sim.PoolSpawns() - before; got != 0 {
				t.Errorf("serial fast path spawned %d pool goroutines, want 0", got)
			}
			if b.TotalUsers() == 0 {
				t.Error("run produced no viewers")
			}
		})
	}
}
