package fluid

import (
	"math"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
)

// stepConst holds the factors of one integration step that depend only on
// its length. integrateTo resolves them in its serial pre-pass, once for
// the batch's full steps and once for its last step, which a barrier may
// cut short, so the per-chunk kernel multiplies instead of calling exp.
//
// Playback completions and VCR jumps are competing exponential clocks
// (rates 1/T₀ and 1/τ), so over dt a playing cohort loses the fraction
// 1−e^{−dt(1/T₀+1/τ)}, split between the two in proportion to their rates.
// The quality window is the same kind of decay with time constant W.
// The download fields parameterize drainStep.
type stepConst struct {
	dt    float64
	invDt float64

	comp   float64 // share of a playing cohort that completes its chunk
	jump   float64 // share that jumps elsewhere
	window float64 // 1−e^{−dt/W}, the quality window's weight

	// Download queues: a waiting viewer downloads at R bytes/s, so the
	// uncapped queue drains at k = R/B per viewer.
	rate    float64 // R, bytes/s per download
	invB    float64 // 1/B, viewers per byte
	invK    float64 // 1/k = B/R, s
	dtOverB float64 // dt/B: capped drain per byte/s of capacity
	qGone   float64 // 1−e^{−k·dt}: share of the step-start queue an uncapped step drains
	inGone  float64 // share of the step's inflow an uncapped step drains
	invKdt  float64 // 1/(k·dt): uncapped drained viewers → mean backlog
}

// newStep resolves the constants of a step of length dt for one channel
// configuration and mean jump interval.
func newStep(dt float64, ch queueing.Config, jumpMean float64) stepConst {
	B := ch.ChunkBytes()
	R := ch.VMBandwidth
	out := 1/ch.ChunkSeconds + 1/jumpMean
	leave := -math.Expm1(-dt * out)
	kdt := dt * R / B
	qGone := -math.Expm1(-kdt)
	return stepConst{
		dt:      dt,
		invDt:   1 / dt,
		comp:    leave * (1 / ch.ChunkSeconds) / out,
		jump:    leave * (1 / jumpMean) / out,
		window:  -math.Expm1(-dt / sim.QualityWindowSeconds),
		rate:    R,
		invB:    1 / B,
		invK:    B / R,
		dtOverB: dt / B,
		qGone:   qGone,
		inGone:  1 - qGone/kdt,
		invKdt:  1 / kdt,
	}
}

// drainStep serves one chunk's download queue over a step in closed form.
// The queue holds q0 viewers at the step start and receives the step's
// inflow in spread evenly over the step (rate a = in/dt). Each waiting
// viewer downloads at R until the chunk's capacity C bytes/s binds, so
//
//	dq/dt = a − min(k·q, C/B),  k = R/B,
//
// which is linear in each regime: uncapped below the switch point
// q* = C/R the queue relaxes exponentially toward a/k, capped at or above
// it the queue moves linearly at a − C/B. Within a step the queue crosses
// q* at most once, and only toward the side a pulls it to. drainStep
// returns the viewers drained and the step-average backlog.
//
// The common cases, a step spent wholly in one regime, are cheap: the
// uncapped one multiplies by precomputed factors, the capped one is
// linear, and each checks the end state against q* (the queue is
// monotone within a regime, so the end state decides whether it
// crossed). A crossing hands over to drainRise or drainFall, which find
// the switch time with one log or finish with one exp.
//
// stepChannel inlines the two one-regime cases (this function is over
// the inlining budget); the oracle test holds that copy to this one.
//
//cloudmedia:hotpath
func drainStep(q0, in, capJ float64, s *stepConst) (drained, mean float64) {
	queue := q0 + in
	if q0*s.rate < capJ {
		// Uncapped: q(dt) = q0·e^{−k·dt} + (a/k)(1−e^{−k·dt}), and
		// the drain k·∫q gives the mean backlog.
		drained = q0*s.qGone + in*s.inGone
		if (queue-drained)*s.rate <= capJ {
			return drained, drained * s.invKdt
		}
		return drainRise(q0, in, capJ, s)
	}
	drained = capJ * s.dtOverB
	if (queue-drained)*s.rate >= capJ {
		return drained, 0.5 * (q0 + queue - drained)
	}
	return drainFall(q0, in, capJ, s)
}

// drainRise finishes a step that starts uncapped and whose inflow lifts
// the queue past the switch point q* = C/R at time t₁: uncapped on
// [0, t₁], capped on [t₁, dt]. Each phase uses its own regime's formula
// from the switch point, never a regime re-derived from the state there:
// k·(C/R) rounds either side of C/B, and re-testing it can mistake the
// phase.
func drainRise(q0, in, capJ float64, s *stepConst) (drained, mean float64) {
	qs := capJ / s.rate
	r := capJ * s.invB
	a := in * s.invDt
	u := a * s.invK // the uncapped equilibrium
	if !(u > qs) {
		// The uncapped end state passed q* only by rounding: an
		// equilibrium at or below q* never lifts the queue past it.
		drained = q0*s.qGone + in*s.inGone
		return drained, drained * s.invKdt
	}
	t1 := 0.0
	if q0 < qs {
		// t₁ = ln((u−q0)/(u−q*))/k, through log1p: q* is often a hair
		// above q0 against u, and the ratio's own rounding would swamp
		// the short phase.
		t1 = min(math.Log1p((qs-q0)/(u-qs))*s.invK, s.dt)
	}
	d1 := max(q0+a*t1-qs, 0)
	rest := s.dt - t1
	end := qs + (a-r)*rest
	drained = min(d1+r*rest, q0+in)
	return drained, (d1*s.invK + 0.5*rest*(qs+end)) * s.invDt
}

// drainFall finishes a step that starts capped and whose queue falls to
// the switch point q* = C/R at time t₁ = (q0 − q*)/(C/B − a): capped on
// [0, t₁], then uncapped from q*, relaxing toward a/k.
func drainFall(q0, in, capJ float64, s *stepConst) (drained, mean float64) {
	qs := capJ / s.rate
	r := capJ * s.invB
	a := in * s.invDt
	if !(r > a) {
		// The capped end state fell below q* only by rounding: an inflow
		// at or above the capped drain never lowers the queue.
		drained = capJ * s.dtOverB
		return drained, 0.5 * (q0 + q0 + in - drained)
	}
	t1 := min(max(q0-qs, 0)/(r-a), s.dt)
	rest := s.dt - t1
	u := a * s.invK
	end := u + (qs-u)*math.Exp(-rest/s.invK)
	d2 := max(qs+a*rest-end, 0)
	drained = min(r*t1+d2, q0+in)
	return drained, (0.5*t1*(q0+qs) + d2*s.invK) * s.invDt
}
