package fluid

import (
	"math"
	"math/rand/v2"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/queueing"
)

// drainChannel is the paper's chunk: 50 kB/s playback, 75 s chunks and
// the default VM bandwidth, so a lone download takes B/R = 3 s.
var drainChannel = queueing.Config{
	Chunks:       8,
	PlaybackRate: 50e3,
	ChunkSeconds: 75,
	VMBandwidth:  cloud.DefaultVMBandwidth,
}

// fineDrain integrates dq/dt = a − min(k·q, C/B) over dt with n midpoint
// steps, returning the viewers drained, the mean backlog, and whether the
// queue spent time on each side of the switch point q* = C/R.
func fineDrain(q0, in, capJ, dt float64, n int) (drained, mean float64, below, above bool) {
	B := drainChannel.ChunkBytes()
	k := drainChannel.VMBandwidth / B
	r := capJ / B
	a := in / dt
	h := dt / float64(n)
	out := func(q float64) float64 { return min(k*q, r) }
	q := q0
	var area float64
	for i := 0; i < n; i++ {
		mid := q + 0.5*h*(a-out(q))
		d := h * out(mid)
		if k*mid < r {
			below = true
		} else {
			above = true
		}
		drained += d
		area += h * mid
		q += h*a - d
	}
	return drained, area / dt, below, above
}

// TestDrainStepMatchesFineIntegration compares the closed-form drain with
// a fine midpoint integration of the same ODE, to 1e-6 of the queue's
// size, on random queues, inflows, capacities and steps. The cases are
// drawn around the switch point so both crossings occur often: a queue
// that starts uncapped and is lifted past q* by its inflow, and one that
// starts capped and falls below it. Fixed cases cover zero capacity, zero
// inflow, an empty start, and a start exactly at the switch point with an
// inflow exactly at the capped drain, where k·(C/R) rounds either side of
// C/B.
func TestDrainStepMatchesFineIntegration(t *testing.T) {
	R := drainChannel.VMBandwidth
	B := drainChannel.ChunkBytes()
	type tc struct{ q0, in, capJ, dt float64 }
	cases := []tc{
		{0, 0, 0, 3},
		{0, 0, 1e6, 3},
		{10, 0, 0, 3},
		{0, 10, 0, 3},
		{10, 0, 1e6, 3},
		{0, 10, 1e6, 3},
		{7, 5, 7 * R, 3},
		{7, 3 * 7 * R / B, 7 * R, 3},
		{7, 3 * 7 * R / B, 7 * R, 0.2},
		{1e-9, 40, 3 * R, 4},
		{40, 1e-9, 3 * R, 4},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 400; i++ {
		dt := 0.05 + 5.95*rng.Float64()
		qs := 50 * rng.Float64() // the switch point C/R
		q0 := qs * 2 * rng.Float64()
		// An inflow rate around the capped drain qs·k.
		in := qs * R / B * dt * 2 * rng.Float64()
		switch rng.IntN(6) {
		case 0:
			q0 = 0
		case 1:
			in = 0
		case 2:
			qs = 0
		}
		cases = append(cases, tc{q0, in, qs * R, dt})
	}
	var rises, falls int
	for _, c := range cases {
		st := newStep(c.dt, drainChannel, 225)
		got, gotMean := drainStep(c.q0, c.in, c.capJ, &st)
		want, wantMean, below, above := fineDrain(c.q0, c.in, c.capJ, c.dt, 20000)
		tol := 1e-6 * (c.q0 + c.in)
		if math.Abs(got-want) > tol || math.Abs(gotMean-wantMean) > tol {
			t.Errorf("drainStep(q0 %v, in %v, C %v, dt %v) = (%v, %v), fine integration (%v, %v)",
				c.q0, c.in, c.capJ, c.dt, got, gotMean, want, wantMean)
		}
		if below && above {
			if c.q0*R < c.capJ {
				rises++
			} else {
				falls++
			}
		}
	}
	if rises < 20 || falls < 20 {
		t.Errorf("only %d rising and %d falling crossings among %d cases", rises, falls, len(cases))
	}
}

// FuzzDrainStep holds drainStep to its invariants on arbitrary queues,
// inflows, capacities and steps: finite results, a drain between zero and
// both what the queue holds over the step and what the capacity can move,
// and a mean backlog between zero and the queue's largest possible size.
// The queue left behind, q0 + in − drained, is then never negative.
func FuzzDrainStep(f *testing.F) {
	R := drainChannel.VMBandwidth
	for _, c := range [][4]float64{
		{0, 0, 0, 3},
		{10, 0, 1e6, 3},
		{0, 10, 1e6, 3},
		{7, 3 * 7 * R / drainChannel.ChunkBytes(), 7 * R, 3},
		{1e-9, 40, 3 * R, 4},
		{40, 1e-9, 3 * R, 4},
	} {
		f.Add(c[0], c[1], c[2], c[3])
	}
	f.Fuzz(func(t *testing.T, q0, in, capJ, dt float64) {
		ok := func(v, hi float64) bool { return v >= 0 && v <= hi }
		if !ok(q0, 1e12) || !ok(in, 1e12) || !ok(capJ, 1e18) || !ok(dt, 60) || dt < 1e-3 {
			t.Skip()
		}
		st := newStep(dt, drainChannel, 225)
		drained, mean := drainStep(q0, in, capJ, &st)
		if math.IsNaN(drained) || math.IsInf(drained, 0) || math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Fatalf("drainStep(%v, %v, %v, dt %v) = (%v, %v): not finite", q0, in, capJ, dt, drained, mean)
		}
		queue := q0 + in
		slack := 1e-9*queue + 1e-300
		if drained < 0 || drained > queue+slack {
			t.Errorf("drainStep(%v, %v, %v, dt %v) drained %v of a queue of %v", q0, in, capJ, dt, drained, queue)
		}
		if limit := capJ * dt / drainChannel.ChunkBytes(); drained > limit*(1+1e-9)+1e-300 {
			t.Errorf("drainStep(%v, %v, %v, dt %v) drained %v, above the capacity's %v", q0, in, capJ, dt, drained, limit)
		}
		if mean < 0 || mean > queue+slack {
			t.Errorf("drainStep(%v, %v, %v, dt %v) mean backlog %v outside [0, %v]", q0, in, capJ, dt, mean, queue)
		}
	})
}
