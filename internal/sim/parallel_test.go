package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// multiChannelConfig widens smallConfig to enough channels to make the
// worker pool do real work.
func multiChannelConfig(t *testing.T, mode Mode, channels int) Config {
	t.Helper()
	cfg := smallConfig(t, mode)
	cfg.Workload.Channels = channels
	return cfg
}

type runOutcome struct {
	quality float64
	users   int
	bytes   float64
	uplinks []float64
}

// runWithWorkers drives a scenario with repeating control work (the
// shape of a provisioning controller) and returns every observable the
// Backend surface exposes.
func runWithWorkers(t *testing.T, cfg Config, workers int) runOutcome {
	t.Helper()
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < cfg.Channel.Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, 400e3); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A control-plane callback every 60 s, touching every channel like the
	// controller does at interval boundaries.
	if err := s.ScheduleRepeating(60, 60, func(now float64) {
		for c := 0; c < s.Channels(); c++ {
			if _, err := s.MeanUplink(c); err != nil {
				t.Error(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1800)
	out := runOutcome{
		quality: s.SampleQuality().Overall,
		users:   s.TotalUsers(),
		bytes:   s.CloudBytesServed(),
	}
	for c := 0; c < s.Channels(); c++ {
		u, err := s.MeanUplink(c)
		if err != nil {
			t.Fatal(err)
		}
		out.uplinks = append(out.uplinks, u)
	}
	return out
}

// TestParallelSteppingMatchesSerial: results must be bit-identical for
// every worker count — per-channel rng streams and engines mean the
// sharding changes wall time only. go test -race additionally verifies
// the workers share no state.
func TestParallelSteppingMatchesSerial(t *testing.T) {
	ensureParallelHost(t, 8) // resolve multi-worker configs to real pools on any host
	for _, mode := range []Mode{ClientServer, P2P} {
		cfg := multiChannelConfig(t, mode, 6)
		serial := runWithWorkers(t, cfg, 1)
		for _, workers := range []int{2, 4, 8} {
			parallel := runWithWorkers(t, cfg, workers)
			if serial.quality != parallel.quality || serial.users != parallel.users || serial.bytes != parallel.bytes {
				t.Errorf("%v workers=%d diverged from serial: %+v vs %+v", mode, workers, parallel, serial)
			}
			for c := range serial.uplinks {
				if serial.uplinks[c] != parallel.uplinks[c] {
					t.Errorf("%v workers=%d channel %d uplink %v != serial %v",
						mode, workers, c, parallel.uplinks[c], serial.uplinks[c])
				}
			}
		}
	}
}

// TestChannelStreamsIndependent: adding a channel must not perturb the
// existing channels' randomness (each channel derives its own stream from
// the seed, so scenarios grow without rewriting history).
func TestChannelStreamsIndependent(t *testing.T) {
	cfg2 := multiChannelConfig(t, ClientServer, 2)
	cfg3 := multiChannelConfig(t, ClientServer, 3)
	// Hold channel 0's arrival rate fixed across the two configs: the
	// base rate is aggregate and the Zipf weights renormalize with the
	// channel count, so pin a flat popularity and scale the base rate.
	for _, cfg := range []*Config{&cfg2, &cfg3} {
		cfg.Workload.ZipfExponent = 0
		cfg.Workload.BaseArrivalRate = 0.1 * float64(cfg.Workload.Channels)
	}
	run := func(cfg Config) int {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(600)
		return s.SampleQuality().UsersPerChannel[0]
	}
	if a, b := run(cfg2), run(cfg3); a != b {
		t.Errorf("channel 0 population %d with 2 channels vs %d with 3: streams not independent", a, b)
	}
}

// TestRebalanceSteadyStateAllocs guards the rebalancePeers hot path: after
// warm-up, a rebalance pass over every channel must not allocate (the
// order scratch is reused across calls).
func TestRebalanceSteadyStateAllocs(t *testing.T) {
	cfg := multiChannelConfig(t, P2P, 4)
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(600) // warm-up: populations and pools in steady state
	allocs := testing.AllocsPerRun(50, func() {
		for _, ch := range s.channels {
			s.rebalancePeers(ch)
		}
	})
	if allocs != 0 {
		t.Errorf("rebalance pass allocates %.0f objects, want 0", allocs)
	}
}

// TestWorkersValidation: negative worker counts are rejected.
func TestWorkersValidation(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Workers accepted")
	}
}

// BenchmarkRebalancePeers measures the P2P rebalance hot path in steady
// state; allocs/op is the guarded metric (the order scratch is reused
// across rebalances; TestRebalanceSteadyStateAllocs holds the hard bound).
func BenchmarkRebalancePeers(b *testing.B) {
	cfg := queueing.Config{
		Chunks:          8,
		PlaybackRate:    50e3,
		ChunkSeconds:    75,
		VMBandwidth:     1.25e6,
		EntryFirstChunk: 0.7,
	}
	transfer, err := viewing.SequentialWithJumps(cfg.Chunks, 0.9, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.Default()
	wl.Channels = 6
	wl.BaseArrivalRate = 1.2
	wl.BaseLevel = 1
	wl.FlashCrowds = nil
	s, err := New(Config{
		Mode:     P2P,
		Channel:  cfg,
		Workload: wl,
		Transfer: transfer,
		Seed:     7,
		Workers:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.RunUntil(1800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range s.channels {
			s.rebalancePeers(ch)
		}
	}
}

// TestSortByOwnersFromAnyStart: the rarest-first order kept across ticks
// re-sorts to the stable owner order of the identity whatever
// permutation it starts from, ties by chunk index.
func TestSortByOwnersFromAnyStart(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		j := 1 + r.Intn(12)
		owners := make([]int, j)
		for i := range owners {
			owners[i] = r.Intn(4)
		}
		want := make([]int, j)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return owners[want[a]] < owners[want[b]] })
		order := r.Perm(j)
		sortByOwners(order, owners)
		if !slices.Equal(order, want) {
			t.Fatalf("owners %v: order %v, want %v", owners, order, want)
		}
	}
}
