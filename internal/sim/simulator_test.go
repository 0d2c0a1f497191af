package sim

import (
	"math"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// smallConfig returns a fast scenario: 2 channels of 5 chunks, 10-second
// chunks, steady arrivals, no flash crowds.
func smallConfig(t *testing.T, mode Mode) Config {
	t.Helper()
	chCfg := queueing.Config{
		Chunks:          5,
		PlaybackRate:    50e3,
		ChunkSeconds:    10,
		VMBandwidth:     250e3, // R = 5r: a dedicated server share downloads a chunk in 2 s
		EntryFirstChunk: 0.7,
	}
	transfer, err := viewing.Sequential(chCfg.Chunks, 0.9)
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	wl := workload.Default()
	wl.Channels = 2
	wl.BaseArrivalRate = 0.2
	wl.BaseLevel = 1
	wl.FlashCrowds = nil
	wl.JumpMeanSeconds = 120
	return Config{
		Mode:     mode,
		Channel:  chCfg,
		Workload: wl,
		Transfer: transfer,
		Seed:     1,
	}
}

// provisionGenerously gives every pool ample cloud capacity.
func provisionGenerously(t *testing.T, s *Simulator) {
	t.Helper()
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < s.ChannelConfig().Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, 100e6); err != nil {
				t.Fatalf("SetCloudCapacity: %v", err)
			}
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Mode = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid mode: want error")
	}
	cfg = smallConfig(t, ClientServer)
	cfg.Transfer = queueing.NewTransferMatrix(3)
	if _, err := New(cfg); err == nil {
		t.Error("matrix size mismatch: want error")
	}
}

func TestModeString(t *testing.T) {
	if ClientServer.String() != "client-server" || P2P.String() != "p2p" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestUsersArriveAndDepart(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	provisionGenerously(t, s)
	s.RunUntil(600)
	if s.TotalUsers() == 0 {
		t.Fatal("no users arrived in 10 minutes at 0.2 arrivals/s")
	}
	// Sessions are finite (~5 chunks × 10 s): population stays bounded.
	// Mean session ≈ 50 s → E[users] ≈ 0.2 × 50 = 10; far below arrivals.
	if got := s.TotalUsers(); got > 100 {
		t.Errorf("population %d looks unbounded", got)
	}
	est, err := s.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	if rate, err := est.ArrivalRate(600); err != nil || rate == 0 {
		t.Errorf("estimator recorded no arrivals (rate %v, err %v)", rate, err)
	}
}

func TestGenerousCapacityGivesSmoothPlayback(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	provisionGenerously(t, s)
	s.RunUntil(900)
	q := s.SampleQuality()
	if q.Overall < 0.99 {
		t.Errorf("quality %v with generous capacity, want ≈1", q.Overall)
	}
}

func TestStarvedCapacityCausesStalls(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Give only a trickle: enough to start playback eventually, far below
	// the demand needed to sustain it.
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < cfg.Channel.Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, cfg.Channel.PlaybackRate/4); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.RunUntil(900)
	if s.TotalUsers() == 0 {
		t.Skip("no users in starved run")
	}
	q := s.SampleQuality()
	if q.Overall > 0.9 {
		t.Errorf("quality %v under starvation, want well below 1", q.Overall)
	}
}

func TestCloudBytesServedTracksUsage(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	provisionGenerously(t, s)
	s.RunUntil(600)
	served := s.CloudBytesServed()
	if served <= 0 {
		t.Fatal("no cloud bytes served")
	}
	// Sanity: served bytes ≈ completed downloads × chunk size; bounded by
	// total users' possible consumption.
	var chBytes float64
	for _, ch := range s.channels {
		v := ch.cloudBytesServed
		if v < 0 {
			t.Errorf("negative channel bytes %v", v)
		}
		chBytes += v
	}
	if !mathx.ApproxEqual(chBytes, served, 1e-6) {
		t.Errorf("per-channel bytes %v != total %v", chBytes, served)
	}
}

func TestP2PUsesLessCloudThanClientServer(t *testing.T) {
	run := func(mode Mode) float64 {
		cfg := smallConfig(t, mode)
		// The scenario runs six times slower — chunks, jumps and horizon
		// six times longer, arrivals six times rarer — so the fixed 30 s
		// rebalance is half a chunk, the staleness the offload bound
		// below was set at.
		cfg.Workload.BaseArrivalRate = 0.5 / 6
		cfg.Channel.ChunkSeconds *= 6
		cfg.Workload.JumpMeanSeconds *= 6
		// Healthy peer uplinks: mean ≈ 1.2 × r.
		up, err := workload.UplinkForRatio(cfg.Channel.PlaybackRate, 1.2)
		if err != nil {
			t.Fatalf("UplinkForRatio: %v", err)
		}
		cfg.Workload.PeerUplink = up
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		provisionGenerously(t, s)
		s.RunUntil(6 * 1800)
		return s.CloudBytesServed()
	}
	cs := run(ClientServer)
	p2p := run(P2P)
	if p2p >= cs {
		t.Errorf("P2P cloud usage %v not below client-server %v", p2p, cs)
	}
	if p2p > 0.7*cs {
		t.Errorf("P2P should offload substantially: p2p=%v cs=%v", p2p, cs)
	}
}

func TestP2PQualityWithHealthyPeers(t *testing.T) {
	cfg := smallConfig(t, P2P)
	up, err := workload.UplinkForRatio(cfg.Channel.PlaybackRate, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload.PeerUplink = up
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	provisionGenerously(t, s)
	s.RunUntil(900)
	q := s.SampleQuality()
	if q.Overall < 0.9 {
		t.Errorf("P2P quality %v, want ≥0.9", q.Overall)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int, float64) {
		s, err := New(smallConfig(t, P2P))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		provisionGenerously(t, s)
		s.RunUntil(600)
		return s.TotalUsers(), s.CloudBytesServed()
	}
	u1, b1 := run()
	u2, b2 := run()
	if u1 != u2 || b1 != b2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", u1, b1, u2, b2)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg1 := smallConfig(t, ClientServer)
	cfg2 := smallConfig(t, ClientServer)
	cfg2.Seed = 2
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, s1)
	provisionGenerously(t, s2)
	s1.RunUntil(600)
	s2.RunUntil(600)
	if s1.CloudBytesServed() == s2.CloudBytesServed() && s1.TotalUsers() == s2.TotalUsers() {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestSetCloudCapacityRejectsNonFinite: a capacity must be a finite
// non-negative rate. NaN and ±Inf are rejected like negative values, and a
// rejected write leaves the provisioned capacity as it was.
func TestSetCloudCapacityRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{0, true},
		{250e3, true},
	} {
		s, err := New(smallConfig(t, ClientServer))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetCloudCapacity(0, 0, 1e3); err != nil {
			t.Fatal(err)
		}
		err = s.SetCloudCapacity(0, 0, tc.v)
		if (err == nil) != tc.ok {
			t.Errorf("SetCloudCapacity(%v): err = %v, want ok %v", tc.v, err, tc.ok)
		}
		want := 1e3
		if tc.ok {
			want = tc.v
		}
		if got, err := s.CloudCapacity(0); err != nil || got != want {
			t.Errorf("after SetCloudCapacity(%v): capacity %v (err %v), want %v", tc.v, got, err, want)
		}
	}
}

func TestAccessorBounds(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCloudCapacity(-1, 0, 1); err == nil {
		t.Error("negative channel: want error")
	}
	if err := s.SetCloudCapacity(0, 99, 1); err == nil {
		t.Error("chunk out of range: want error")
	}
	if err := s.SetCloudCapacity(0, 0, -1); err == nil {
		t.Error("negative capacity: want error")
	}
	if _, err := s.CloudCapacity(5); err == nil {
		t.Error("channel out of range: want error")
	}
	if _, err := s.MeanUplink(5); err == nil {
		t.Error("channel out of range: want error")
	}
	if _, err := s.Estimator(5); err == nil {
		t.Error("channel out of range: want error")
	}
}

func TestCloudCapacityAccounting(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCloudCapacity(0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCloudCapacity(0, 1, 2e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCloudCapacity(1, 0, 5e6); err != nil {
		t.Fatal(err)
	}
	got, err := s.CloudCapacity(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3e6 {
		t.Errorf("channel 0 capacity = %v, want 3e6", got)
	}
	if tot := s.TotalCloudCapacity(); tot != 8e6 {
		t.Errorf("total capacity = %v, want 8e6", tot)
	}
}

func TestQualityEmptySystem(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	q := s.SampleQuality()
	if q.Overall != 1 {
		t.Errorf("empty system quality = %v, want 1", q.Overall)
	}
	for c, v := range q.PerChannel {
		if v != 1 {
			t.Errorf("empty channel %d quality = %v, want 1", c, v)
		}
	}
}

func TestMeanUplinkWithinDistribution(t *testing.T) {
	cfg := smallConfig(t, P2P)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, s)
	s.RunUntil(600)
	for c, n := range s.SampleQuality().UsersPerChannel {
		if n == 0 {
			continue
		}
		u, err := s.MeanUplink(c)
		if err != nil {
			t.Fatal(err)
		}
		if u < cfg.Workload.PeerUplink.Lo || u > cfg.Workload.PeerUplink.Hi {
			t.Errorf("mean uplink %v outside distribution bounds", u)
		}
	}
}

func TestScheduleRepeating(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	var ticks []float64
	if err := s.ScheduleRepeating(10, 20, func(now float64) { ticks = append(ticks, now) }); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleRepeating(0, 0, func(float64) {}); err == nil {
		t.Error("zero interval: want error")
	}
	s.RunUntil(55)
	if len(ticks) != 3 || ticks[0] != 10 || ticks[1] != 30 || ticks[2] != 50 {
		t.Errorf("ticks = %v, want [10 30 50]", ticks)
	}
}

func TestEstimatorFeedsTransitions(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, s)
	s.RunUntil(900)
	est, err := s.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := est.Matrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential ground truth with jumps layered on: forward transitions
	// must carry observable mass.
	var forward float64
	for i := 0; i < 4; i++ {
		forward += p[i][i+1]
	}
	if forward == 0 {
		t.Error("no forward transitions observed")
	}
}

func TestPeerSchedulingString(t *testing.T) {
	if RarestFirst.String() != "rarest-first" || Proportional.String() != "proportional" {
		t.Error("scheduling strings")
	}
	if PeerScheduling(9).String() == "" {
		t.Error("unknown scheduling should still format")
	}
}

func TestPeerSchedulingValidation(t *testing.T) {
	cfg := smallConfig(t, P2P)
	cfg.Scheduling = PeerScheduling(42)
	if _, err := New(cfg); err == nil {
		t.Error("invalid scheduling accepted")
	}
}

func TestProportionalSchedulingRuns(t *testing.T) {
	run := func(sched PeerScheduling) (float64, float64) {
		cfg := smallConfig(t, P2P)
		cfg.Scheduling = sched
		up, err := workload.UplinkForRatio(cfg.Channel.PlaybackRate, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload.PeerUplink = up
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", sched, err)
		}
		provisionGenerously(t, s)
		s.RunUntil(1200)
		return s.CloudBytesServed(), s.SampleQuality().Overall
	}
	rarestBytes, rarestQ := run(RarestFirst)
	propBytes, propQ := run(Proportional)
	if rarestQ < 0.8 || propQ < 0.8 {
		t.Errorf("quality collapsed: rarest=%v proportional=%v", rarestQ, propQ)
	}
	// The two policies must actually allocate differently.
	if rarestBytes == propBytes {
		t.Error("schedulers produced byte-identical cloud usage (suspicious)")
	}
}
