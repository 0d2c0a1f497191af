package fluid

import (
	"math"
	"reflect"
	"testing"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

// smallConfig mirrors the event engine's test scenario: 2 channels of 5
// chunks, 10-second chunks, steady arrivals.
func smallConfig(t *testing.T, mode sim.Mode) sim.Config {
	t.Helper()
	chCfg := testutil.ChannelConfig(5, 10)
	chCfg.VMBandwidth = 250e3
	return sim.Config{
		Mode:     mode,
		Channel:  chCfg,
		Workload: testutil.FlatWorkload(2, 0.2, 120),
		Transfer: testutil.Sequential(t, chCfg.Chunks, 0.9),
		Seed:     1,
	}
}

func provisionGenerously(t *testing.T, b *Backend) {
	t.Helper()
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, 100e6); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPopulationBalance: the viewer stock must equal the integral of
// arrival flow minus departure flow — the fluid continuity equation.
func TestPopulationBalance(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	const horizon = 3600.0
	b.RunUntil(horizon)

	var arrived, departed, stock float64
	for c := 0; c < b.C; c++ {
		f := b.feeds[c]
		arrived += f.arrivals
		for i, comp := range f.completed {
			departed += max(comp*(1-f.rowSum[i]), 0)
		}
		stock += b.channelUsers(c)
	}
	if arrived <= 0 {
		t.Fatal("no arrival flow accumulated")
	}
	if diff := math.Abs(arrived - departed - stock); diff > 1e-6*arrived {
		t.Errorf("continuity violated: arrived %v − departed %v ≠ stock %v (diff %v)",
			arrived, departed, stock, diff)
	}
}

// TestCloudBytesNeverExceedCapacityIntegral mirrors the event engine's
// conservation test: with constant capacity C per chunk over T seconds,
// the cloud cannot serve more than C·T·pools bytes.
func TestCloudBytesNeverExceedCapacityIntegral(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 400e3
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	b.RunUntil(horizon)
	served := b.CloudBytesServed()
	bound := perChunk * float64(b.Channels()*b.ChannelConfig().Chunks) * horizon
	if served > bound+1e-6 {
		t.Errorf("served %v exceeds capacity integral %v", served, bound)
	}
	if served <= 0 {
		t.Error("no bytes served")
	}
}

// TestP2PCloudAttributionBounded: cloud-attributed bytes can never exceed
// the cloud capacity integral, regardless of peer supply.
func TestP2PCloudAttributionBounded(t *testing.T) {
	b, err := New(smallConfig(t, sim.P2P))
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 200e3
	for c := 0; c < b.Channels(); c++ {
		for i := 0; i < b.ChannelConfig().Chunks; i++ {
			if err := b.SetCloudCapacity(c, i, perChunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	const horizon = 1800.0
	b.RunUntil(horizon)
	bound := perChunk * float64(b.Channels()*b.ChannelConfig().Chunks) * horizon
	if served := b.CloudBytesServed(); served > bound+1e-6 {
		t.Errorf("cloud-attributed bytes %v exceed cloud capacity integral %v", served, bound)
	}
}

// TestSetCloudCapacityRejectsNonFinite: a capacity must be a finite
// non-negative rate. NaN and ±Inf are rejected like negative values (a NaN
// would also break the total order the rarest-first sort relies on), and
// a rejected write leaves the provisioned capacity as it was.
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
		b, err := New(smallConfig(t, sim.P2P))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetCloudCapacity(0, 0, 1e3); err != nil {
			t.Fatal(err)
		}
		err = b.SetCloudCapacity(0, 0, tc.v)
		if (err == nil) != tc.ok {
			t.Errorf("SetCloudCapacity(%v): err = %v, want ok %v", tc.v, err, tc.ok)
		}
		want := 1e3
		if tc.ok {
			want = tc.v
		}
		if got, err := b.CloudCapacity(0); err != nil || got != want {
			t.Errorf("after SetCloudCapacity(%v): capacity %v (err %v), want %v", tc.v, got, err, want)
		}
	}
}

// TestDeterminism: the fluid model has no randomness — two backends over
// the same scenario must agree bit for bit.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64, int) {
		b, err := New(smallConfig(t, sim.P2P))
		if err != nil {
			t.Fatal(err)
		}
		provisionGenerously(t, b)
		b.RunUntil(7200)
		q := b.SampleQuality()
		return q.Overall, b.CloudBytesServed(), b.TotalUsers()
	}
	q1, bytes1, n1 := run()
	q2, bytes2, n2 := run()
	if q1 != q2 || bytes1 != bytes2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%v,%d) vs (%v,%v,%d)", q1, bytes1, n1, q2, bytes2, n2)
	}
}

// TestGenerousCapacityGivesSmoothPlayback and its starved counterpart pin
// the quality metric's direction.
func TestGenerousCapacityGivesSmoothPlayback(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	b.RunUntil(900)
	if q := b.SampleQuality(); q.Overall < 0.99 {
		t.Errorf("quality %v with generous capacity, want ≈1", q.Overall)
	}
}

func TestStarvedCapacityCausesStalls(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	// No capacity at all: every download starves.
	b.RunUntil(900)
	q := b.SampleQuality()
	if q.Overall > 0.5 {
		t.Errorf("quality %v with zero capacity, want low", q.Overall)
	}
	if b.TotalUsers() == 0 {
		t.Error("starved channel lost its viewers")
	}
	for _, v := range q.PerChannel {
		if v < 0 || v > 1 {
			t.Errorf("per-channel quality %v outside [0,1]", v)
		}
	}
}

// TestFeedMatrixNormalized: the flow-accumulator feed must hand the
// controller a valid transfer matrix.
func TestFeedMatrixNormalized(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	b.RunUntil(1800)
	feed, err := b.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := feed.ArrivalRate(1800)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Error("no arrival rate observed")
	}
	m, err := feed.Matrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("feed matrix invalid: %v", err)
	}
	var forward float64
	for i := 0; i+1 < len(m); i++ {
		forward += m[i][i+1]
	}
	if forward == 0 {
		t.Error("no forward transition mass observed")
	}
	feed.Reset()
	if r, _ := feed.ArrivalRate(1800); r != 0 {
		t.Errorf("arrival rate %v after Reset, want 0", r)
	}
}

// TestFeedMatrixReusesStorage: Matrix rebuilds one feed-owned matrix in
// place, so an unobserved row must show this call's fallback (or zeros
// without one), never the previous call's row, and a steady call
// allocates nothing.
func TestFeedMatrixReusesStorage(t *testing.T) {
	// Chunk 0 goes on to 1 with probability 2/3 and leaves otherwise,
	// chunk 1 always goes on to 2, and chunk 2 is never reached.
	trans := []float64{0, 2.0 / 3, 0, 0, 0, 1, 0, 0, 0}
	f := newFeed(3, trans, []float64{2.0 / 3, 1, 0})
	f.completed[0] = 3 // chunk 0 → 1 twice; chunk 0 → exit once
	f.completed[1] = 4 // chunk 1 → 2; chunk 2 unobserved
	fallback := queueing.TransferMatrix{{0, 0.5, 0}, {0, 0, 1}, {0.25, 0, 0}}
	first, err := f.Matrix(fallback)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.TransferMatrix{{0, 2.0 / 3, 0}, {0, 0, 1}, {0.25, 0, 0}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("Matrix(fallback) = %v, want %v", first, want)
	}
	second, err := f.Matrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	want[2] = []float64{0, 0, 0}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("Matrix(nil) = %v, want %v", second, want)
	}
	if &first[0][0] != &second[0][0] {
		t.Error("Matrix allocated a new matrix on its second call")
	}
	if allocs := testing.AllocsPerRun(20, func() { f.Matrix(fallback) }); allocs != 0 {
		t.Errorf("steady Matrix allocates %.1f times", allocs)
	}
}

// TestFluidCapacitySumsTrackWrites: the capacity totals, summed at each
// read, must track SetCloudCapacity writes exactly, and reads must not
// allocate (the run reads totals every sample).
func TestFluidCapacitySumsTrackWrites(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		var want float64
		for c := 0; c < b.C; c++ {
			got, err := b.CloudCapacity(c)
			if err != nil {
				t.Fatal(err)
			}
			var fresh float64
			for j := 0; j < b.J; j++ {
				fresh += b.cloudCap[c*b.J+j]
			}
			if got != fresh {
				t.Errorf("%s: channel %d capacity %v != fresh sum %v", context, c, got, fresh)
			}
			want += got
		}
		if got := b.TotalCloudCapacity(); got != want {
			t.Errorf("%s: total capacity %v != sum of channels %v", context, got, want)
		}
	}
	check("initial")
	for c := 0; c < b.C; c++ {
		for j := 0; j < b.J; j++ {
			if err := b.SetCloudCapacity(c, j, float64(100*(c+1)+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after full provisioning")
	if err := b.SetCloudCapacity(1, 3, 7.5); err != nil {
		t.Fatal(err)
	}
	check("after single-chunk overwrite")
	b.RunUntil(120)
	check("after integration")

	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		sink += b.TotalCloudCapacity()
		for c := 0; c < b.C; c++ {
			v, _ := b.CloudCapacity(c)
			sink += v
		}
	})
	if allocs != 0 {
		t.Errorf("capacity reads allocate %.0f objects, want 0 (sink %v)", allocs, sink)
	}
}

// TestScheduleBarriers: callbacks see the ODE state integrated exactly to
// their timestamp, and repeating callbacks fire on schedule.
func TestScheduleBarriers(t *testing.T) {
	b, err := New(smallConfig(t, sim.ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	provisionGenerously(t, b)
	var fires []float64
	if err := b.ScheduleRepeating(100, 100, func(now float64) {
		fires = append(fires, now)
		if b.Now() != now {
			t.Errorf("callback at %v sees clock %v", now, b.Now())
		}
	}); err != nil {
		t.Fatal(err)
	}
	b.RunUntil(350)
	if len(fires) != 3 {
		t.Fatalf("fired %d times in 350 s with period 100, want 3", len(fires))
	}
}
