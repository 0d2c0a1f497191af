// Package workload generates the synthetic PPLive-like VoD trace of
// Sec. VI-A: 20 channels with Zipf popularity, per-channel Poisson arrivals
// modulated by a daily pattern with two flash crowds (around noon and in
// the evening), exponential VCR-jump intervals with a 15-minute mean, and
// peer upload capacities drawn from a bounded Pareto distribution on
// [180 Kbps, 10 Mbps] with shape k = 3.
//
// Rates are expressed per second of simulated time and bandwidths in bytes
// per second. All sampling is driven by a caller-supplied *rand.Rand.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cloudmedia/internal/mathx"
)

// FlashCrowd is one Gaussian arrival surge in the daily pattern.
type FlashCrowd struct {
	PeakHour   float64 // hour of day of the peak, [0, 24)
	WidthHours float64 // Gaussian σ in hours
	Amplitude  float64 // added rate multiplier at the peak
}

// Params configures the trace generator.
type Params struct {
	Channels        int                 // number of video channels
	ZipfExponent    float64             // popularity skew across channels
	BaseArrivalRate float64             // aggregate baseline arrival rate, users/s
	BaseLevel       float64             // off-peak fraction of the baseline rate
	FlashCrowds     []FlashCrowd        // daily surges
	JumpMeanSeconds float64             // mean VCR-jump interval (exponential)
	PeerUplink      mathx.BoundedPareto // per-peer upload bandwidth, bytes/s

	weights []float64 // cached Zipf weights
}

// Default returns parameters matching the paper's experimental settings:
// 20 Zipf channels, ~2500 concurrent users at steady state, two flash
// crowds (noon and evening), 15-minute jump intervals, and Pareto peer
// uplinks on [180 Kbps, 10 Mbps] with k = 3.
func Default() Params {
	uplink, err := mathx.NewBoundedPareto(180e3/8, 10e6/8, 3)
	if err != nil {
		panic("workload: default uplink distribution invalid: " + err.Error())
	}
	return Params{
		Channels:     20,
		ZipfExponent: 0.8,
		// ≈0.8 users/s aggregate × ≈50-minute mean sessions ≈ 2400 concurrent.
		BaseArrivalRate: 0.8,
		BaseLevel:       0.5,
		FlashCrowds: []FlashCrowd{
			{PeakHour: 12, WidthHours: 1.5, Amplitude: 1.0},
			{PeakHour: 20, WidthHours: 1.5, Amplitude: 1.5},
		},
		JumpMeanSeconds: 15 * 60,
		PeerUplink:      uplink,
	}
}

// Validate checks parameter invariants. Comparisons are written so NaN
// fails them, and rates must be finite.
func (p Params) Validate() error {
	switch {
	case p.Channels <= 0:
		return fmt.Errorf("workload: non-positive channel count %d", p.Channels)
	case !(p.ZipfExponent >= 0 && p.ZipfExponent <= math.MaxFloat64):
		return fmt.Errorf("workload: Zipf exponent %v not finite and non-negative", p.ZipfExponent)
	case !(p.BaseArrivalRate >= 0 && p.BaseArrivalRate <= math.MaxFloat64):
		return fmt.Errorf("workload: arrival rate %v not finite and non-negative", p.BaseArrivalRate)
	case !(p.BaseLevel >= 0 && p.BaseLevel <= math.MaxFloat64):
		return fmt.Errorf("workload: base level %v not finite and non-negative", p.BaseLevel)
	case !(p.JumpMeanSeconds > 0 && p.JumpMeanSeconds <= math.MaxFloat64):
		return fmt.Errorf("workload: jump interval %v not positive and finite", p.JumpMeanSeconds)
	}
	for i, fc := range p.FlashCrowds {
		if !(fc.WidthHours > 0 && fc.WidthHours <= math.MaxFloat64) {
			return fmt.Errorf("workload: flash crowd %d: width %v not positive and finite", i, fc.WidthHours)
		}
		if !(fc.Amplitude >= 0 && fc.Amplitude <= math.MaxFloat64) {
			return fmt.Errorf("workload: flash crowd %d: amplitude %v not finite and non-negative", i, fc.Amplitude)
		}
		if !(fc.PeakHour >= 0 && fc.PeakHour < 24) {
			return fmt.Errorf("workload: flash crowd %d: peak hour %v outside [0,24)", i, fc.PeakHour)
		}
	}
	return nil
}

// Clone returns a deep copy: the flash-crowd list and the cached Zipf
// weights are reallocated, so mutations through the copy never reach the
// original. Scenario derivation (simulate.Scenario.With) relies on this.
func (p Params) Clone() Params {
	p.FlashCrowds = append([]FlashCrowd(nil), p.FlashCrowds...)
	p.weights = append([]float64(nil), p.weights...)
	return p
}

// ChannelWeights returns the Zipf popularity weights (summing to 1).
func (p *Params) ChannelWeights() ([]float64, error) {
	if p.weights == nil {
		w, err := mathx.ZipfWeights(p.Channels, p.ZipfExponent)
		if err != nil {
			return nil, err
		}
		p.weights = w
	}
	return p.weights, nil
}

// RateMultiplier returns the diurnal arrival-rate multiplier at simulated
// time t (seconds since the start of day 0): the base level plus the
// Gaussian flash crowds, evaluated on the 24-hour clock.
func (p Params) RateMultiplier(t float64) float64 {
	hour := math.Mod(t/3600, 24)
	if hour < 0 {
		hour += 24
	}
	m := p.BaseLevel
	for _, fc := range p.FlashCrowds {
		// Circular distance on the 24-hour clock so crowds near midnight wrap.
		d := math.Abs(hour - fc.PeakHour)
		if d > 12 {
			d = 24 - d
		}
		m += fc.Amplitude * math.Exp(-d*d/(2*fc.WidthHours*fc.WidthHours))
	}
	return m
}

// MaxRateMultiplier returns an upper bound on RateMultiplier, used as the
// thinning envelope for non-homogeneous Poisson sampling.
func (p Params) MaxRateMultiplier() float64 {
	m := p.BaseLevel
	for _, fc := range p.FlashCrowds {
		m += fc.Amplitude
	}
	return m
}

// ChannelRate returns channel c's instantaneous arrival rate at time t:
// BaseArrivalRate × zipf(c) × RateMultiplier(t).
func (p *Params) ChannelRate(c int, t float64) (float64, error) {
	w, err := p.ChannelWeights()
	if err != nil {
		return 0, err
	}
	if c < 0 || c >= len(w) {
		return 0, fmt.Errorf("workload: channel %d outside [0,%d)", c, len(w))
	}
	return p.BaseArrivalRate * w[c] * p.RateMultiplier(t), nil
}

// MeanChannelRate approximates channel c's mean arrival rate over
// [start, end) by midpoint sampling of ChannelRate — the true-intensity
// source behind oracle provisioning policies.
func (p *Params) MeanChannelRate(c int, start, end float64) (float64, error) {
	if end <= start {
		return 0, nil
	}
	const steps = 12
	dt := (end - start) / steps
	var sum float64
	for i := 0; i < steps; i++ {
		r, err := p.ChannelRate(c, start+(float64(i)+0.5)*dt)
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum / steps, nil
}

// TrueRateSource returns the oracle-policy rate source over a private
// copy of the parameters: the trace's mean arrival intensity per channel
// and interval, with errors (bad channel index) reported as zero demand.
func (p Params) TrueRateSource() func(channel int, start, end float64) float64 {
	return func(channel int, start, end float64) float64 {
		r, err := p.MeanChannelRate(channel, start, end)
		if err != nil {
			return 0
		}
		return r
	}
}

// MaxChannelRate returns the thinning envelope for channel c.
func (p *Params) MaxChannelRate(c int) (float64, error) {
	w, err := p.ChannelWeights()
	if err != nil {
		return 0, err
	}
	if c < 0 || c >= len(w) {
		return 0, fmt.Errorf("workload: channel %d outside [0,%d)", c, len(w))
	}
	return p.BaseArrivalRate * w[c] * p.MaxRateMultiplier(), nil
}

// NextArrival samples the next arrival time for channel c after `now`,
// before `horizon`, from the non-homogeneous Poisson process. It returns
// +Inf if no arrival occurs before the horizon.
func (p *Params) NextArrival(rng *rand.Rand, c int, now, horizon float64) (float64, error) {
	envelope, err := p.MaxChannelRate(c)
	if err != nil {
		return 0, err
	}
	t := mathx.NextNHPPArrival(rng, now, horizon, envelope, func(at float64) float64 {
		//cloudmedia:allow noloss -- thinning callback: on a rate error the zero fallback rejects the candidate arrival
		r, _ := p.ChannelRate(c, at)
		return r
	})
	return t, nil
}

// SampleUplink draws one peer upload capacity in bytes/s.
func (p Params) SampleUplink(rng *rand.Rand) float64 {
	return p.PeerUplink.Sample(rng)
}

// NextJump samples the delay in seconds until a viewer's next VCR jump.
func (p Params) NextJump(rng *rand.Rand) float64 {
	return mathx.Exponential(rng, p.JumpMeanSeconds)
}

// UplinkForRatio returns a bounded Pareto uplink distribution scaled so its
// mean equals ratio × streamingRate — the knob varied in Fig. 11 (ratios
// 0.9, 1.0, 1.2 of the streaming rate r).
func UplinkForRatio(streamingRate, ratio float64) (mathx.BoundedPareto, error) {
	if streamingRate <= 0 {
		return mathx.BoundedPareto{}, fmt.Errorf("workload: non-positive streaming rate %v", streamingRate)
	}
	if ratio <= 0 {
		return mathx.BoundedPareto{}, fmt.Errorf("workload: non-positive uplink ratio %v", ratio)
	}
	base, err := mathx.NewBoundedPareto(180e3/8, 10e6/8, 3)
	if err != nil {
		return mathx.BoundedPareto{}, err
	}
	scale := ratio * streamingRate / base.Mean()
	return mathx.NewBoundedPareto(base.Lo*scale, base.Hi*scale, base.Shape)
}
