package stack

import (
	"slices"
	"testing"

	"cloudmedia/internal/fault"
)

// FuzzCapacityWindows runs 1–4 degradation or outage windows on the
// four-hour fluid stack and holds the serving capacity to the product F
// of the windows open at each instant. Within one provisioning interval,
// once the round's raises have booted, the capacity is the booted
// capacity times F, so for two probes t1 and t2 in the interval
// capacity(t1)·F(t2) ≈ capacity(t2)·F(t1) within 1e-9 relative, and the
// capacity is 0 wherever F is 0. Each window takes four bytes: kind
// (odd: outage), start in minutes, duration in minutes − 1 (mod 120), and
// the degradation factor in 128ths (capped at 1). The seed corpus under
// testdata/fuzz/FuzzCapacityWindows holds nested degradations and a
// degradation that starts inside an outage.
func FuzzCapacityWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/4, 4)
		if n == 0 {
			return
		}
		sched := &fault.Schedule{}
		var edges []float64
		for i := range n {
			w := data[4*i : 4*i+4]
			start, dur := float64(w[1])*60, float64(w[2]%120+1)*60
			if w[0]%2 == 1 {
				sched.Outages = append(sched.Outages, fault.RegionOutage{Start: start, Duration: dur})
			} else {
				factor := min(float64(w[3]), 128) / 128
				sched.Degradations = append(sched.Degradations, fault.CapacityDegradation{Start: start, Duration: dur, Factor: factor})
			}
			edges = append(edges, start, start+dur)
		}
		if sched.Validate() != nil {
			return // overlapping outages of one region
		}
		// open is the brute-force product of the windows open at t.
		open := func(t float64) float64 {
			f := 1.0
			for _, d := range sched.Degradations {
				if d.Start <= t && t < d.Start+d.Duration {
					f *= d.Factor
				}
			}
			for _, o := range sched.Outages {
				if o.Start <= t && t < o.Start+o.Duration {
					f = 0
				}
			}
			return f
		}
		sys := fluidDay(t, sched, nil)
		interval := sys.Scenario.IntervalSeconds
		for round := 0.0; round < sys.Scenario.Hours*3600; round += interval {
			probes := []float64{round + 50, round + interval - 1}
			for _, e := range edges {
				if round+50 < e && e < round+interval-1 {
					probes = append(probes, e)
				}
			}
			slices.Sort(probes)
			var refCap, refF float64
			for _, at := range probes {
				c, f := capacityAt(sys, at), open(at)
				if f == 0 && c != 0 {
					t.Fatalf("capacity %v at %v s, where every window product is 0", c, at)
				}
				if refF == 0 {
					refCap, refF = c, f
					continue
				}
				if !nearlyEqual(c*refF, refCap*f) {
					t.Fatalf("capacity %v at %v s under factor %v, but %v under %v earlier in the interval", c, at, f, refCap, refF)
				}
			}
		}
	})
}
