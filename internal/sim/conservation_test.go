package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// TestCloudBytesNeverExceedCapacityIntegral: with a constant cloud capacity
// C per chunk over a run of length T, the cloud cannot have served more
// than C·T·pools bytes, and in client-server mode it must have served
// every byte (no peers exist to credit).
func TestCloudBytesNeverExceedCapacityIntegral(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 400e3
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < cfg.Channel.Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	s.RunUntil(horizon)
	served := s.CloudBytesServed()
	bound := perChunk * float64(s.Channels()*cfg.Channel.Chunks) * horizon
	if served > bound+1e-6 {
		t.Errorf("served %v exceeds capacity integral %v", served, bound)
	}
	if served <= 0 {
		t.Error("no bytes served")
	}
}

// TestP2PCloudAttributionBounded: cloud-attributed bytes can never exceed
// what the cloud capacity could deliver, regardless of peer activity.
func TestP2PCloudAttributionBounded(t *testing.T) {
	cfg := smallConfig(t, P2P)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 200e3
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < cfg.Channel.Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	s.RunUntil(horizon)
	bound := perChunk * float64(s.Channels()*cfg.Channel.Chunks) * horizon
	if served := s.CloudBytesServed(); served > bound+1e-6 {
		t.Errorf("cloud-attributed bytes %v exceed cloud capacity integral %v", served, bound)
	}
}

// TestSimInvariantsProperty drives random small scenarios and checks the
// global invariants: user counts non-negative and bounded, quality within
// [0,1], byte counters monotone.
func TestSimInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		chCfg := queueing.Config{
			Chunks:          2 + r.Intn(5),
			PlaybackRate:    50e3,
			ChunkSeconds:    5 + float64(r.Intn(20)),
			VMBandwidth:     250e3,
			EntryFirstChunk: r.Float64(),
		}
		if chCfg.Chunks == 1 {
			chCfg.EntryFirstChunk = 1
		}
		transfer, err := viewing.SequentialWithJumps(chCfg.Chunks, 0.5+r.Float64()*0.45, r.Float64()*0.5)
		if err != nil {
			return false
		}
		wl := workload.Default()
		wl.Channels = 1 + r.Intn(3)
		wl.BaseArrivalRate = r.Float64() * 0.5
		wl.BaseLevel = 1
		wl.FlashCrowds = nil
		wl.JumpMeanSeconds = 30 + r.Float64()*300
		mode := ClientServer
		if r.Intn(2) == 1 {
			mode = P2P
		}
		s, err := New(Config{
			Mode: mode, Channel: chCfg, Workload: wl, Transfer: transfer, Seed: seed,
		})
		if err != nil {
			return false
		}
		for c := 0; c < s.Channels(); c++ {
			for i := 0; i < chCfg.Chunks; i++ {
				if err := s.SetCloudCapacity(c, i, r.Float64()*2e6); err != nil {
					return false
				}
			}
		}
		var lastBytes float64
		for step := 1; step <= 5; step++ {
			s.RunUntil(float64(step) * 120)
			if s.TotalUsers() < 0 {
				return false
			}
			q := s.SampleQuality()
			if q.Overall < 0 || q.Overall > 1 {
				return false
			}
			b := s.CloudBytesServed()
			if b < lastBytes-1e-6 {
				return false // byte counter went backwards
			}
			lastBytes = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}
