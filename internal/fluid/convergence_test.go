package fluid_test

import (
	"math"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/fluid"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/workload"
)

// eulerQuality and eulerBill are peakDay's mean quality and bill under
// the explicit Euler kernel this engine used before its update became
// exact in dt, at that kernel's 1 s step. Their distance from the dt → 0
// estimate is the accuracy the default step must match.
const (
	eulerQuality = 0.86458968675807657
	eulerBill    = 184391.68005328
)

// peakDay runs the 100M-viewer fluid day's evening flash crowd, moved to
// hour 2 of a 4-hour run, on 4 channels at a million-viewer base scale —
// small enough that no chunk needs more than the sizing search's server
// cap, so the controller plans every channel at its measured demand. A
// positive dt overrides the engine's step; zero keeps the default. A
// non-nil tweak edits the scenario before it is built. It returns the
// mean sampled quality and the bill.
func peakDay(t *testing.T, dt float64, tweak func(*stack.Spec)) (quality, bill float64) {
	t.Helper()
	sc := stack.DefaultSpec(modes.CloudAssisted, 1)
	sc.Fidelity = modes.FidelityFluid
	sc.Workload.Channels = 4
	sc.Workload.BaseArrivalRate = stack.BaseRateForViewers(1e6)
	sc.Workload.FlashCrowds = []workload.FlashCrowd{{PeakHour: 2, WidthHours: 1.5, Amplitude: 1.5}}
	sc.Hours = 4
	sc.VMBudget = 5_200_000
	sc.StorageBudget = 3000
	sc.VMClusters = []cloud.VMClusterSpec{
		{Name: "mega-a", MaxVMs: 4_200_000, PricePerHour: 0.64, Utility: 1.0},
		{Name: "mega-b", MaxVMs: 4_200_000, PricePerHour: 0.60, Utility: 0.9},
	}
	sc.Workers = 1
	if tweak != nil {
		tweak(&sc)
	}
	demandErrors := 0
	sys, err := stack.Build(stack.Scenario{
		Spec:       sc,
		OnInterval: func(rec core.IntervalRecord) { demandErrors += rec.DemandErrors },
	}, stack.RegionID{})
	if err != nil {
		t.Fatal(err)
	}
	if dt > 0 {
		fluid.SetStep(sys.Sim.(*fluid.Backend), dt)
	}
	var sum float64
	samples := 0
	for now := 0.0; now < sc.Hours*3600; {
		now += sys.Scenario.SampleSeconds
		sys.Sim.RunUntil(now)
		sys.Cloud.Advance(now)
		sum += sys.Sim.SampleQuality().Overall
		samples++
	}
	if demandErrors > 0 {
		t.Fatalf("dt %v: %d channel-rounds failed their demand analysis", dt, demandErrors)
	}
	return sum / float64(samples), sys.Cloud.Ledger().Totals().TotalUSD()
}

// TestStepConvergence runs peakDay at halving steps and requires the
// quality to converge at first order or better: each halving must change
// it at most about half as much as the halving before. The first-order
// Richardson estimate from the two finest steps, 2·Q(h/2) − Q(h), stands
// in for the dt → 0 limit, and at the default step both the quality and
// the bill must lie no further from it than the Euler kernel's did at
// 1 s.
func TestStepConvergence(t *testing.T) {
	steps := []float64{2, 1, 0.5, 0.25, 0.125}
	quality := make([]float64, len(steps))
	bill := make([]float64, len(steps))
	for i, dt := range steps {
		quality[i], bill[i] = peakDay(t, dt, nil)
		t.Logf("dt %5.3g s: quality %.6f, bill $%.2f", dt, quality[i], bill[i])
	}
	for i := 0; i+2 < len(steps); i++ {
		coarse := quality[i] - quality[i+1]
		fine := quality[i+1] - quality[i+2]
		if !(math.Abs(coarse) >= 1.8*math.Abs(fine)) {
			t.Errorf("halving dt %v → %v changed quality by %.3g, then %v → %v by %.3g: slower than first order",
				steps[i], steps[i+1], coarse, steps[i+1], steps[i+2], fine)
		}
	}
	n := len(steps)
	limitQ := 2*quality[n-1] - quality[n-2]
	limitBill := 2*bill[n-1] - bill[n-2]
	q, b := peakDay(t, 0, nil)
	t.Logf("default step: quality %.6f (error %.5f, Euler at 1 s %.5f), bill $%.2f (error $%.2f, Euler at 1 s $%.2f)",
		q, q-limitQ, eulerQuality-limitQ, b, b-limitBill, eulerBill-limitBill)
	if math.Abs(q-limitQ) > math.Abs(eulerQuality-limitQ) {
		t.Errorf("default step's quality %v is %.5f from the dt → 0 estimate %v, the Euler kernel's at 1 s only %.5f",
			q, q-limitQ, limitQ, eulerQuality-limitQ)
	}
	if math.Abs(b-limitBill) > math.Abs(eulerBill-limitBill) {
		t.Errorf("default step's bill $%.2f is $%.2f from the dt → 0 estimate $%.2f, the Euler kernel's at 1 s only $%.2f",
			b, b-limitBill, limitBill, eulerBill-limitBill)
	}
}

// TestStepConvergenceAcrossScenarios holds the default step to half of
// TestStepConvergence's bar on variants of its peak day, one knob apart
// each: the default step's quality must lie within half the Euler
// kernel's 1 s error of the first-order Richardson estimate from 0.25 s
// and 0.125 s steps. The variants move what the step's error rests on:
// the peer split (client-server has none, proportional scheduling and a
// halved uplink change it), the crowd's growth (a steeper flash crowd),
// the cohorts' time constants (rarer jumps, shorter chunks) and the
// queues' scale (a 10k-viewer base).
func TestStepConvergenceAcrossScenarios(t *testing.T) {
	rows := []struct {
		name  string
		tweak func(*stack.Spec)
	}{
		{"peak day", nil},
		{"client-server", func(sc *stack.Spec) { sc.Mode = modes.ClientServer }},
		{"proportional", func(sc *stack.Spec) { sc.Scheduling = sim.Proportional }},
		{"flash amplitude 3", func(sc *stack.Spec) { sc.Workload.FlashCrowds[0].Amplitude = 3 }},
		{"jump mean 900 s", func(sc *stack.Spec) { sc.Workload.JumpMeanSeconds = 900 }},
		{"16 chunks of 40 s", func(sc *stack.Spec) { sc.Channel.Chunks, sc.Channel.ChunkSeconds = 16, 40 }},
		{"uplink ratio 0.5", func(sc *stack.Spec) { sc.UplinkRatio = 0.5 }},
		{"10k-viewer base", func(sc *stack.Spec) { sc.Workload.BaseArrivalRate = stack.BaseRateForViewers(1e4) }},
	}
	// Half of TestStepConvergence's bar: the Euler kernel's 1 s quality
	// error on the peak day, 0.0089.
	const bar = 0.0045
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			qFine, _ := peakDay(t, 0.25, row.tweak)
			qFinest, _ := peakDay(t, 0.125, row.tweak)
			est := 2*qFinest - qFine
			q, _ := peakDay(t, 0, row.tweak)
			t.Logf("default step: quality %.6f, dt → 0 estimate %.6f, error %.2e (bar %.2e)", q, est, q-est, bar)
			if math.Abs(q-est) > bar {
				t.Errorf("default step's quality %v is %.5f from the dt → 0 estimate %v, more than half the Euler kernel's 1 s error (%v)",
					q, q-est, est, bar)
			}
		})
	}
}
