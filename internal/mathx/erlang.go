package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when an M/M/m queue has offered load a = λ/µ ≥ m,
// i.e. no equilibrium exists.
var ErrUnstable = errors.New("mathx: queue unstable (offered load >= servers)")

// ErlangB returns the Erlang-B blocking probability B(m, a) for m servers
// and offered load a = λ/µ, computed with the standard numerically stable
// recurrence B(0)=1, B(k) = a·B(k−1) / (k + a·B(k−1)).
func ErlangB(m int, a float64) float64 {
	b := 1.0
	for k := 1; k <= m; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the Erlang-C delay probability C(m, a): the probability
// that an arriving job must wait in an M/M/m queue with m servers and
// offered load a = λ/µ. Requires a < m for a meaningful (finite-queue)
// answer; callers should check stability first.
func ErlangC(m int, a float64) float64 {
	if a <= 0 {
		return 0
	}
	if a >= float64(m) {
		return 1
	}
	return erlangCFromB(m, a, ErlangB(m, a))
}

// erlangCFromB converts a stable queue's Erlang-B value b = B(m, a) into
// the Erlang-C delay probability C(m, a) = m·B / (m − a·(1 − B)).
func erlangCFromB(m int, a, b float64) float64 {
	mm := float64(m)
	return mm * b / (mm - a*(1-b))
}

// MMm describes a stable M/M/m queue in equilibrium. Construct with NewMMm,
// or size one with MinServersForSojourn.
type MMm struct {
	Lambda  float64 // arrival rate λ (jobs per unit time)
	Mu      float64 // per-server service rate µ
	Servers int     // m

	offered float64 // a = λ/µ
	delayP  float64 // Erlang-C C(m, a)
}

// NewMMm validates parameters and returns the equilibrium description of an
// M/M/m queue. It returns ErrUnstable if λ/µ ≥ m.
func NewMMm(lambda, mu float64, m int) (MMm, error) {
	switch {
	case lambda < 0:
		return MMm{}, fmt.Errorf("mathx: negative arrival rate %v", lambda)
	case mu <= 0:
		return MMm{}, fmt.Errorf("mathx: non-positive service rate %v", mu)
	case m <= 0:
		return MMm{}, fmt.Errorf("mathx: non-positive server count %d", m)
	}
	a := lambda / mu
	if a >= float64(m) {
		return MMm{}, ErrUnstable
	}
	return MMm{
		Lambda:  lambda,
		Mu:      mu,
		Servers: m,
		offered: a,
		delayP:  ErlangC(m, a),
	}, nil
}

// MeanQueueLength returns E[L_q], the expected number of jobs waiting
// (excluding jobs in service).
func (q MMm) MeanQueueLength() float64 {
	if q.Lambda == 0 {
		return 0
	}
	return q.delayP * q.offered / (float64(q.Servers) - q.offered)
}

// MeanJobs returns E[n], the expected number of jobs in the system (waiting
// plus in service). This is Eqn. (3) of the paper in closed form:
// E[n] = a + C(m,a)·a/(m−a).
func (q MMm) MeanJobs() float64 {
	return q.offered + q.MeanQueueLength()
}

// MeanSojourn returns E[T], the expected total time in system (waiting plus
// service). By Little's law E[T] = E[n]/λ.
func (q MMm) MeanSojourn() float64 {
	if q.Lambda == 0 {
		return 1 / q.Mu
	}
	return q.MeanJobs() / q.Lambda
}

// seriesThreshold is the offered load a = λ/µ from which the sizing search
// seeds B(start, a) with erlangBSeries instead of the O(a) recurrence.
// Below it the search runs the exact recurrence, so every paper-scale
// sizing is bit-identical to ErlangB.
const seriesThreshold = 1000

// seriesEpsilon is the relative size, against the running sum, below which
// erlangBSeries drops the remaining (decreasing) terms.
const seriesEpsilon = 1e-17

// erlangBSeries returns B(m, a) for a stable queue (m > a) from
//
//	1/B(m, a) = Σ_{k=0..m} m!/((m−k)!·a^k) = Σ_k Π_{i<k} (m−i)/a,
//
// cut off once the terms, which shrink from k ≈ m−a on, fall below
// seriesEpsilon of the sum. With m just above a the terms decay like
// exp(−k²/2a), so the cut comes after O(√a) terms instead of the
// recurrence's m steps.
//
// Each ratio (m−i)/a is a product with the precomputed 1/a, and the loop
// advances four terms at a time: the four ratios' running products are
// formed apart from the running term, their pairwise sum times the
// running term joins the sum, and the running term takes one multiply
// per four terms. Neither a division nor a chain of dependent multiplies
// limits the loop. The cut is checked on the block's last, smallest
// term, so up to three terms past the cut are added; they only make the
// sum more exact. It agrees with ErlangB within a relative 1.05e-13 over
// the loads the simulator sizes (the worst
// TestSeriesMatchesRecurrenceAboveThreshold measures, against its 1e-12
// bound).
func erlangBSeries(m int, a float64) float64 {
	inv := 1 / a
	sum, term := 1.0, 1.0
	n := float64(m) // m − k, exact: m is far below 2⁵³
	k := 0
	for ; k+4 <= m; k += 4 {
		r0 := n * inv
		r1 := (n - 1) * inv
		r2 := (n - 2) * inv
		r3 := (n - 3) * inv
		p1 := r0 * r1
		p2 := p1 * r2
		p3 := p2 * r3
		sum += term * ((r0 + p1) + (p2 + p3))
		term *= p3
		if r3 < 1 && term < seriesEpsilon*sum {
			return 1 / sum
		}
		n -= 4
	}
	for ; k < m; k++ {
		ratio := n * inv
		term *= ratio
		sum += term
		if ratio < 1 && term < seriesEpsilon*sum {
			break
		}
		n--
	}
	return 1 / sum
}

// MinServersForSojourn returns the M/M/m queue with the smallest server
// count m that is stable with rates (λ, µ) and has mean sojourn time at
// most target. This is the paper's iterative sizing rule from Sec. IV-B:
// grow m from the smallest stable value until E[n] ≤ λ·T₀ (equivalently
// E[T] ≤ T₀ by Little's law). maxServers bounds the search; if the target
// is unreachable within the bound an error is returned.
//
// The search evaluates B(start, a) once — by the recurrence below
// seriesThreshold, by erlangBSeries above it — and then advances
// B(m) → B(m+1) with one recurrence step per further candidate. A search
// costs O(a) below the threshold and O(√a) above it, plus one step per
// candidate, where restarting the recurrence cost O(a) per candidate.
// Below the threshold every candidate equals NewMMm(λ, µ, m) bit for bit.
//
//cloudmedia:hotpath
func MinServersForSojourn(lambda, mu, target float64, maxServers int) (MMm, error) {
	if err := sizingInputError(lambda, mu, target, maxServers); err != nil {
		return MMm{}, err
	}
	if lambda == 0 {
		// A single server serves the (nonexistent) load; sojourn is 1/µ.
		return MMm{Mu: mu, Servers: 1}, nil
	}
	a := lambda / mu
	start := int(math.Floor(a)) + 1 // smallest stable m
	if start < 1 {
		start = 1
	}
	if start > maxServers {
		return MMm{}, unreachableError(lambda, mu, target, maxServers)
	}
	var b float64
	if a >= seriesThreshold {
		b = erlangBSeries(start, a)
	} else {
		b = ErlangB(start, a)
	}
	for m := start; ; m++ {
		if a < float64(m) {
			q := MMm{Lambda: lambda, Mu: mu, Servers: m, offered: a, delayP: erlangCFromB(m, a, b)}
			if q.MeanSojourn() <= target {
				return q, nil
			}
		}
		if m == maxServers {
			return MMm{}, unreachableError(lambda, mu, target, maxServers)
		}
		b = a * b / (float64(m+1) + a*b)
	}
}

// sizingInputError validates MinServersForSojourn's arguments, including
// the case no server count can fix: a service time alone above target.
func sizingInputError(lambda, mu, target float64, maxServers int) error {
	switch {
	case lambda < 0:
		return fmt.Errorf("mathx: negative arrival rate %v", lambda)
	case mu <= 0:
		return fmt.Errorf("mathx: non-positive service rate %v", mu)
	case target <= 0:
		return fmt.Errorf("mathx: non-positive sojourn target %v", target)
	case maxServers <= 0:
		return fmt.Errorf("mathx: non-positive server bound %d", maxServers)
	case 1/mu > target:
		// Even with zero waiting the service time alone misses the target.
		return fmt.Errorf("mathx: service time 1/µ=%v exceeds target %v", 1/mu, target)
	}
	return nil
}

// unreachableError reports a sojourn target no m ≤ maxServers meets.
func unreachableError(lambda, mu, target float64, maxServers int) error {
	return fmt.Errorf("mathx: no m ≤ %d meets sojourn target %v (λ=%v µ=%v)", maxServers, target, lambda, mu)
}
