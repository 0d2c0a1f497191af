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
// mean sampled quality, the bill and the peak sampled viewer stock.
func peakDay(t *testing.T, dt float64, tweak func(*stack.Spec)) (quality, bill, peak float64) {
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
		sum += sys.Sim.SampleQuality().Overall
		samples++
		peak = max(peak, float64(sys.Sim.TotalUsers()))
	}
	if demandErrors > 0 {
		t.Fatalf("dt %v: %d channel-rounds failed their demand analysis", dt, demandErrors)
	}
	return sum / float64(samples), sys.Cloud.Bill(sys.Sim.Now()).TotalUSD(), peak
}

// stockDrift bounds the default step's peak viewer stock against its
// dt → 0 estimate, relative. The stock converges at first order and the
// default step reads 6.3% high on the peak day (DESIGN.md "Fluid step"):
// drained viewers start playing at the step's end, so a larger step
// holds them longer in the stock.
const stockDrift = 0.07

// firstOrder reports whether each halving of the step changes v at most
// 1/1.8 as much as the halving before, and if not, where it does not.
func firstOrder(steps, v []float64) (ok bool, i int) {
	for i := 0; i+2 < len(steps); i++ {
		if !(math.Abs(v[i]-v[i+1]) >= 1.8*math.Abs(v[i+1]-v[i+2])) {
			return false, i
		}
	}
	return true, 0
}

// TestStepConvergence runs peakDay at halving steps and requires the
// quality and the peak viewer stock to converge at first order or
// better: each halving must change them at most about half as much as
// the halving before. The first-order Richardson estimate from the two
// finest steps, 2·Q(h/2) − Q(h), stands in for the dt → 0 limit. At the
// default step both the quality and the bill must lie no further from it
// than the Euler kernel's did at 1 s, and the peak stock within
// stockDrift of it.
func TestStepConvergence(t *testing.T) {
	steps := []float64{2, 1, 0.5, 0.25, 0.125}
	quality := make([]float64, len(steps))
	bill := make([]float64, len(steps))
	stock := make([]float64, len(steps))
	for i, dt := range steps {
		quality[i], bill[i], stock[i] = peakDay(t, dt, nil)
		t.Logf("dt %5.3g s: quality %.6f, bill $%.2f, peak stock %.0f", dt, quality[i], bill[i], stock[i])
	}
	for _, series := range []struct {
		name string
		v    []float64
	}{{"quality", quality}, {"peak stock", stock}} {
		if ok, i := firstOrder(steps, series.v); !ok {
			t.Errorf("halving dt %v → %v changed %s by %.3g, then %v → %v by %.3g: slower than first order",
				steps[i], steps[i+1], series.name, series.v[i]-series.v[i+1], steps[i+1], steps[i+2], series.v[i+1]-series.v[i+2])
		}
	}
	n := len(steps)
	limitQ := 2*quality[n-1] - quality[n-2]
	limitBill := 2*bill[n-1] - bill[n-2]
	limitStock := 2*stock[n-1] - stock[n-2]
	q, b, peak := peakDay(t, 0, nil)
	drift := (peak - limitStock) / limitStock
	t.Logf("default step: peak stock %.0f, dt → 0 estimate %.0f (relative error %.4f, bound %v)", peak, limitStock, drift, stockDrift)
	if !(math.Abs(drift) <= stockDrift) {
		t.Errorf("default step's peak stock %.0f is %.4f from the dt → 0 estimate %.0f, relative, beyond %v",
			peak, drift, limitStock, stockDrift)
	}
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
			qFine, _, _ := peakDay(t, 0.25, row.tweak)
			qFinest, _, _ := peakDay(t, 0.125, row.tweak)
			est := 2*qFinest - qFine
			q, _, _ := peakDay(t, 0, row.tweak)
			t.Logf("default step: quality %.6f, dt → 0 estimate %.6f, error %.2e (bar %.2e)", q, est, q-est, bar)
			if math.Abs(q-est) > bar {
				t.Errorf("default step's quality %v is %.5f from the dt → 0 estimate %v, more than half the Euler kernel's 1 s error (%v)",
					q, q-est, est, bar)
			}
		})
	}
}
