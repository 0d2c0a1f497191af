package core

import (
	"math"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

// roundBackend is a sim.Backend that isolates the controller round: its
// feeds report a fixed transfer matrix and per-channel arrival rates that
// drift from round to round, its capacity writes go nowhere, and the
// callbacks a round schedules fire at the start of the next one.
type roundBackend struct {
	cfg     queueing.Config
	feeds   []roundFeed
	pending []func(now float64)
	now     float64
}

// roundFeed is one channel's measurement feed. Reset keeps the counts:
// every round of the harness sees a full interval of traffic.
type roundFeed struct {
	rate   float64
	matrix queueing.TransferMatrix
}

func (f *roundFeed) ArrivalRate(float64) (float64, error) { return f.rate, nil }
func (f *roundFeed) Matrix(queueing.TransferMatrix) (queueing.TransferMatrix, error) {
	return f.matrix, nil
}
func (f *roundFeed) Reset() {}

var _ sim.Backend = (*roundBackend)(nil)

func (b *roundBackend) Now() float64       { return b.now }
func (b *roundBackend) RunUntil(t float64) { b.now = t }
func (b *roundBackend) ScheduleAt(_ float64, fn func(now float64)) error {
	b.pending = append(b.pending, fn)
	return nil
}
func (b *roundBackend) ScheduleRepeating(float64, float64, func(now float64)) error { return nil }
func (b *roundBackend) Mode() sim.Mode                                              { return sim.P2P }
func (b *roundBackend) ChannelConfig() queueing.Config                              { return b.cfg }
func (b *roundBackend) Channels() int                                               { return len(b.feeds) }
func (b *roundBackend) SetCloudCapacity(int, int, float64) error                    { return nil }
func (b *roundBackend) CloudCapacity(int) (float64, error)                          { return 0, nil }
func (b *roundBackend) TotalCloudCapacity() float64                                 { return 0 }
func (b *roundBackend) CloudBytesServed() float64                                   { return 0 }
func (b *roundBackend) TotalUsers() int                                             { return 0 }
func (b *roundBackend) MeanUplink(int) (float64, error)                             { return 55e3, nil }
func (b *roundBackend) SampleQuality() sim.QualitySample                            { return sim.QualitySample{} }
func (b *roundBackend) Estimator(ch int) (sim.Feed, error)                          { return &b.feeds[ch], nil }

// controlRound is the minute-round control day's controller in
// isolation: 24 channels of 8 chunks (the default stack channel), 60 s
// rounds, EWMA forecasts, the spot-hedged lookahead planner, spot
// pricing, boot latency, and the stack's trust and headroom. Its Zipf
// demand sums to the day's mean arrival rate of 0.6 viewers/s.
type controlRound struct {
	ctl   *Controller
	be    *roundBackend
	round int
}

func newControlRound(tb testing.TB) *controlRound {
	tb.Helper()
	cfg := testutil.ChannelConfig(8, 75)
	cfg.SlotsPerVM = 5
	prior := testutil.SequentialWithJumps(tb, cfg.Chunks, 0.9, 75.0/225)
	be := &roundBackend{cfg: cfg, feeds: make([]roundFeed, 24)}
	for ch := range be.feeds {
		be.feeds[ch].matrix = prior
	}
	cl, err := cloud.New(cloud.DefaultVMClusters(), cloud.DefaultNFSClusters(), cloud.WithPricing(cloud.SpotPricing()))
	if err != nil {
		tb.Fatal(err)
	}
	ctl, err := NewController(be, cl, Options{
		IntervalSeconds:      60,
		VMBudgetPerHour:      100,
		StorageBudgetPerHour: 1,
		FallbackTransfer:     prior,
		Predictor:            EWMA{Alpha: 0.4},
		Policy:               provision.Lookahead{SpotHedge: true},
		Workers:              1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := &controlRound{ctl: ctl, be: be}
	// A full history and grown scratch: the steady state.
	for range 200 {
		r.step()
	}
	return r
}

// step runs one round a minute after the last, with every channel's rate
// moved along its own slow wave so the forecasts differ step to step and
// the lookahead derives every step.
func (r *controlRound) step() {
	r.round++
	now := float64(r.round) * 60
	for _, fn := range r.be.pending {
		fn(now)
	}
	clear(r.be.pending)
	r.be.pending = r.be.pending[:0]
	var norm float64
	for ch := range r.be.feeds {
		norm += math.Pow(float64(ch+1), -0.8)
	}
	for ch := range r.be.feeds {
		wave := 1 + 0.2*math.Sin(0.05*float64(r.round)+float64(ch))
		r.be.feeds[ch].rate = 0.6 * math.Pow(float64(ch+1), -0.8) / norm * wave
	}
	r.be.now = now
	r.ctl.runInterval(now)
}

// steadyRoundAllocs bounds the allocations of one steady controller
// round. What still allocates is what the round hands out: the
// IntervalRecord's two per-channel slices, the VM and storage plans
// (slices and maps) that the record and the lookahead planner's
// hysteresis keep, and the broker request with its rental maps and
// sorted names. A held lookahead round builds no VM plan. Demand
// derivation, the lookahead matrix, the forecasts, the serial fan-outs,
// the planners' drafts, sorts, validation and cluster tallies, and the
// capacity tables allocate nothing.
const steadyRoundAllocs = 16

func TestSteadyControlRoundAllocations(t *testing.T) {
	r := newControlRound(t)
	allocs := testing.AllocsPerRun(50, r.step)
	t.Logf("%.0f allocations per steady round", allocs)
	if allocs > steadyRoundAllocs {
		t.Errorf("steady control round allocates %.0f times, want ≤ %d", allocs, steadyRoundAllocs)
	}
}

// BenchmarkControlRound is one steady minute round of the control day:
// snapshot, forecast, derivation of 24 channels and three lookahead
// steps, the hedged lookahead plan, and apply.
func BenchmarkControlRound(b *testing.B) {
	r := newControlRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.step()
	}
}
