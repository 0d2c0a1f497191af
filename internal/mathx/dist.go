package mathx

import (
	"fmt"
	"math"
	"math/rand"
)

// ZipfWeights returns n weights proportional to 1/rank^s, normalized to sum
// to 1. Rank 1 (index 0) is the most popular. The paper deploys 20 channels
// "with different popularities following a Zipf-like distribution".
func ZipfWeights(n int, s float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mathx: non-positive channel count %d", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("mathx: negative Zipf exponent %v", s)
	}
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w, nil
}

// BoundedPareto samples variates from a Pareto distribution with shape k,
// truncated to [lo, hi] by inverse-transform sampling on the truncated CDF.
// The paper draws peer upload capacities from a Pareto distribution on
// [180 Kbps, 10 Mbps] with shape k = 3.
type BoundedPareto struct {
	Lo, Hi float64
	Shape  float64
}

// NewBoundedPareto validates the parameters and returns the distribution.
func NewBoundedPareto(lo, hi, shape float64) (BoundedPareto, error) {
	switch {
	case lo <= 0:
		return BoundedPareto{}, fmt.Errorf("mathx: non-positive Pareto lower bound %v", lo)
	case hi <= lo:
		return BoundedPareto{}, fmt.Errorf("mathx: Pareto upper bound %v not above lower bound %v", hi, lo)
	case shape <= 0:
		return BoundedPareto{}, fmt.Errorf("mathx: non-positive Pareto shape %v", shape)
	}
	return BoundedPareto{Lo: lo, Hi: hi, Shape: shape}, nil
}

// Sample draws one variate.
func (p BoundedPareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	k := p.Shape
	lk := math.Pow(p.Lo, k)
	hk := math.Pow(p.Hi, k)
	// Inverse of the truncated CDF F(x) = (1 − (lo/x)^k) / (1 − (lo/hi)^k).
	x := math.Pow(-(u*hk-u*lk-hk)/(hk*lk), -1/k)
	return math.Min(math.Max(x, p.Lo), p.Hi)
}

// Mean returns the analytic mean of the bounded Pareto distribution.
func (p BoundedPareto) Mean() float64 {
	k := p.Shape
	l, h := p.Lo, p.Hi
	if k == 1 {
		return (h * l / (h - l)) * math.Log(h/l)
	}
	lk := math.Pow(l, k)
	return lk / (1 - math.Pow(l/h, k)) * (k / (k - 1)) * (1/math.Pow(l, k-1) - 1/math.Pow(h, k-1))
}

// Exponential draws an exponential variate with the given mean. The paper's
// VCR-jump intervals are exponential with a 15-minute mean, and Jackson
// service times are exponential by assumption.
func Exponential(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}

// NextNHPPArrival returns the next arrival time of a non-homogeneous Poisson
// process with instantaneous rate rate(t), simulated by thinning against the
// envelope rateMax (which must dominate rate(t) on the horizon). It returns
// +Inf if no arrival occurs before horizon.
func NextNHPPArrival(rng *rand.Rand, now, horizon, rateMax float64, rate func(t float64) float64) float64 {
	if rateMax <= 0 {
		return math.Inf(1)
	}
	t := now
	for {
		t += rng.ExpFloat64() / rateMax
		if t >= horizon {
			return math.Inf(1)
		}
		if rng.Float64()*rateMax <= rate(t) {
			return t
		}
	}
}
