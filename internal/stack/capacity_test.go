package stack

import (
	"math"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/modes"
)

// fluidDay builds the default cloud-assisted stack on the fluid engine,
// four hours of hourly rounds, with the given fault plan; tweak, if
// non-nil, edits the spec before Build.
func fluidDay(t testing.TB, faults *fault.Schedule, tweak func(*Scenario)) *System {
	t.Helper()
	sc := Scenario{Spec: DefaultSpec(modes.CloudAssisted, 1)}
	sc.Fidelity = modes.FidelityFluid
	sc.Hours = 4
	sc.Faults = faults
	if tweak != nil {
		tweak(&sc)
	}
	sys, err := Build(sc, RegionID{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// parseFaults parses a fault spec or fails the test.
func parseFaults(t testing.TB, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// capacityAt advances sys to at and returns its total serving capacity.
func capacityAt(sys *System, at float64) float64 {
	sys.Sim.RunUntil(at)
	return sys.Sim.TotalCloudCapacity()
}

// nearlyEqual reports whether a and b agree within 1e-9 relative.
func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))
}

// TestBrownoutInsideBootWindowStaysDark: a brownout to factor 0 that
// starts while the 3600 s round's raises boot stays dark for its whole
// window. The boot must not serve the raise unscaled (it once served
// 1.284e7 bytes/s from 3625 s to the window's end).
func TestBrownoutInsideBootWindowStaysDark(t *testing.T) {
	sys := fluidDay(t, parseFaults(t, "degrade@3610s+2h:0"), nil)
	for _, at := range []float64{3615, 3630, 7199, 10805} {
		if got := capacityAt(sys, at); got != 0 {
			t.Errorf("capacity %v bytes/s at %v s inside the brownout, want 0", got, at)
		}
	}
	if got := capacityAt(sys, 10815); got <= 0 {
		t.Errorf("capacity %v bytes/s after the brownout, want it restored", got)
	}
}

// TestFaultEdgeInsideBootWindowServesBootedOnly: a degradation edge while
// the round's raises boot scales the capacity that has booted (7.085e6
// bytes/s at 3615 s), not the plan (it once served 8.163e6); the raise
// then boots at the degraded factor.
func TestFaultEdgeInsideBootWindowServesBootedOnly(t *testing.T) {
	ref := fluidDay(t, nil, nil)
	sys := fluidDay(t, parseFaults(t, "degrade@3610s+2h:0.5"), nil)
	booted := capacityAt(sys, 3605)
	if got, want := capacityAt(sys, 3615), 0.5*booted; got != want {
		t.Errorf("capacity %v bytes/s at 3615 s, want half the booted %v = %v", got, booted, want)
	}
	if got, want := capacityAt(sys, 3630), 0.5*capacityAt(ref, 3630); got != want {
		t.Errorf("capacity %v bytes/s at 3630 s after the boot, want %v", got, want)
	}
}

// TestOverlappingWindowsMultiply: the capacity windows open at an instant
// multiply, so the first window to close does not restore the healthy
// factor while another is still open. Each probe is far enough past its
// round for the raises to have booted, so the faulted run serves factor ×
// the healthy one: exactly until the first round that measured the fault,
// and within the last bits of that round's plan after it (at 6000 s and
// 7300 s the nested degradations serve 4.081e6 and 8.215e6 bytes/s; the
// first end once restored 8.163e6 and 1.643e7).
func TestOverlappingWindowsMultiply(t *testing.T) {
	ref := fluidDay(t, nil, nil)
	healthy := map[float64]float64{}
	for _, at := range []float64{3700, 6000, 7300, 10900} {
		healthy[at] = capacityAt(ref, at)
	}
	for _, tc := range []struct {
		spec    string
		factors [4]float64 // at 3700, 6000, 7300 and 10900 s
	}{
		{"degrade@1h+2h:0.5,degrade@1.5h+0.5h:0.5", [4]float64{0.5, 0.25, 0.5, 1}},
		{"degrade@1h+2h:0.5,outage@1.5h+0.5h", [4]float64{0.5, 0, 0.5, 1}},
	} {
		sys := fluidDay(t, parseFaults(t, tc.spec), nil)
		for i, at := range []float64{3700, 6000, 7300, 10900} {
			if got, want := capacityAt(sys, at), tc.factors[i]*healthy[at]; !nearlyEqual(got, want) {
				t.Errorf("%s: capacity %v bytes/s at %v s, want %v × %v = %v", tc.spec, got, at, tc.factors[i], healthy[at], want)
			}
		}
	}
}

// TestIntervalBelowBootLatencyNeverServesAboveLatestPlan: with rounds
// every 10 s, shorter than the boot latency, several raises boot after
// later plans. A raise must never bring a channel above what the latest
// plan gives it (a raise a later plan lowered once fired anyway, lifting
// the total from 1.408e7 at 40 s to 1.501e7 at 45 s).
func TestIntervalBelowBootLatencyNeverServesAboveLatestPlan(t *testing.T) {
	var planned []float64 // per channel, from the latest applied round
	sys := fluidDay(t, nil, func(sc *Scenario) {
		sc.IntervalSeconds = 10
		sc.OnInterval = func(rec core.IntervalRecord) {
			if rec.PlanErr != "" || rec.SubmitErr != "" {
				return
			}
			planned = make([]float64, sc.Workload.Channels)
			perChunk := rec.VMPlan.CapacityPerChunk(sc.Channel.VMBandwidth)
			for ch := range planned {
				for j := 0; j < sc.Channel.Chunks; j++ {
					planned[ch] += perChunk[[2]int{ch, j}]
				}
			}
		}
	})
	if sys.Cloud.BootLatency() <= 10 {
		t.Fatalf("boot latency %v s is not above the 10 s interval", sys.Cloud.BootLatency())
	}
	for at := 1.0; at <= 120; at++ {
		sys.Sim.RunUntil(at)
		for ch, plan := range planned {
			got, err := sys.Sim.CloudCapacity(ch)
			if err != nil {
				t.Fatal(err)
			}
			if got > plan*(1+1e-12) {
				t.Errorf("channel %d serves %v bytes/s at %v s, above the latest plan's %v", ch, got, at, plan)
			}
		}
	}
}

// TestPreemptionInsideBootWindowScalesBootedCapacity: a spot preemption
// while the 3600 s round's raises boot scales only the capacity that has
// booted, so every channel keeps the same survivor fraction of the
// healthy run's capacity until the raises boot; the raises then serve
// their plan in full.
func TestPreemptionInsideBootWindowScalesBootedCapacity(t *testing.T) {
	spot := func(sc *Scenario) {
		sc.Pricing = cloud.SpotPricing()
		sc.Pricing.SpotInterruption = 0 // only the declared preemption
	}
	ref := fluidDay(t, nil, spot)
	sys := fluidDay(t, parseFaults(t, "preempt@3610s:0.5"), spot)
	ref.Sim.RunUntil(3615)
	sys.Sim.RunUntil(3615)
	var survivor float64
	for ch := 0; ch < sys.Sim.Channels(); ch++ {
		healthy, _ := ref.Sim.CloudCapacity(ch)
		got, _ := sys.Sim.CloudCapacity(ch)
		if healthy == 0 {
			continue
		}
		ratio := got / healthy
		if survivor == 0 {
			survivor = ratio
		}
		if math.Abs(ratio-survivor) > 1e-12 || ratio >= 1 {
			t.Errorf("channel %d serves %v of its healthy capacity at 3615 s, want the common survivor fraction %v < 1", ch, ratio, survivor)
		}
	}
	if survivor == 0 {
		t.Fatal("the preemption left no capacity to compare")
	}
	healthy, got := capacityAt(ref, 3630), capacityAt(sys, 3630)
	if !(got > survivor*healthy && got <= healthy) {
		t.Errorf("capacity %v bytes/s at 3630 s, want the booted raises on top of %v × %v", got, survivor, healthy)
	}
}
