package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cloudmedia/internal/mathx"
)

// Source is the demand seam: per-channel arrival intensity over time.
// The parametric Params (Zipf popularity × diurnal pattern, the paper's
// Sec. VI-A workload) is the default implementation via Params.Source;
// recorded or synthesized traces (internal/trace) are the other. Both
// simulation engines, the provisioning controller's oracle rate feed,
// and the bootstrap estimates all consume demand through this interface,
// so swapping the demand model never touches the engines.
//
// Implementations must be usable read-only from concurrent goroutines
// after construction: the event engine queries Rate from its per-channel
// workers. Any lazy caching must happen on the first call, which both
// engines guarantee to make serially during construction (MaxRate for
// every channel is primed before workers start), or behind the
// implementation's own lock.
type Source interface {
	// NumChannels returns the number of channels the source describes.
	NumChannels() int
	// Rate returns channel c's instantaneous arrival intensity at
	// simulated time t (seconds since the start of the run), in users/s.
	Rate(channel int, t float64) (float64, error)
	// MaxRate returns an upper bound on Rate over all t — the thinning
	// envelope for non-homogeneous Poisson sampling.
	MaxRate(channel int) (float64, error)
	// MeanRate returns the mean arrival intensity over [start, end) — the
	// true-rate feed behind oracle provisioning policies.
	MeanRate(channel int, start, end float64) (float64, error)
	// CloneSource returns a deep, independent copy: mutating or querying
	// the clone never perturbs the original (including lazy caches).
	CloneSource() Source
	// Validate checks the source's invariants.
	Validate() error
}

// BatchSource is an optional Source refinement: fill dst[c] with Rate(c, t)
// for every channel in one call. Sources whose per-channel rates share work
// at a fixed instant — the parametric source's diurnal multiplier, a
// trace's interpolation segment — implement it so tight step loops (the
// fluid integrator, the live serving metrics) pay that work once per step
// instead of once per channel. Implementations must produce bit-identical
// values to per-channel Rate calls, must not allocate, and — like Rate —
// must tolerate concurrent calls at different instants into disjoint dst
// buffers (the fluid integrator batches a span of steps and resolves
// their rate rows in parallel).
type BatchSource interface {
	// RatesInto fills dst[c] with Rate(c, t); len(dst) must equal
	// NumChannels().
	RatesInto(t float64, dst []float64) error
}

// RatesInto fills dst with every channel's instantaneous rate at t, using
// the source's batched path when it has one and falling back to
// per-channel Rate calls otherwise. len(dst) must equal src.NumChannels().
//
//cloudmedia:hotpath
func RatesInto(src Source, t float64, dst []float64) error {
	if len(dst) != src.NumChannels() {
		return rateBufLenError(len(dst), src.NumChannels())
	}
	if bs, ok := src.(BatchSource); ok {
		return bs.RatesInto(t, dst)
	}
	for c := range dst {
		r, err := src.Rate(c, t)
		if err != nil {
			return err
		}
		dst[c] = r
	}
	return nil
}

// Source adapts the parametric workload into the demand seam over a
// private copy of the parameters, so the returned source shares no state
// (including the cached Zipf weights) with the receiver.
func (p Params) Source() Source {
	return &paramsSource{p: p.Clone()}
}

// paramsSource is the parametric Source: Zipf weights × diurnal
// multiplier, delegating to the Params methods unchanged so a parametric
// source is bit-identical to driving the engines from Params directly.
type paramsSource struct {
	p Params
}

func (s *paramsSource) NumChannels() int { return s.p.Channels }

func (s *paramsSource) Rate(channel int, t float64) (float64, error) {
	return s.p.ChannelRate(channel, t)
}

func (s *paramsSource) MaxRate(channel int) (float64, error) {
	return s.p.MaxChannelRate(channel)
}

func (s *paramsSource) MeanRate(channel int, start, end float64) (float64, error) {
	return s.p.MeanChannelRate(channel, start, end)
}

// RatesInto implements BatchSource: the diurnal multiplier (base level plus
// Gaussian flash crowds) is shared by every channel at a fixed instant, so
// it is evaluated once here instead of once per channel. Each entry is
// computed as BaseArrivalRate × w[c] × multiplier in exactly ChannelRate's
// operand order, so the batched values are bit-identical to Rate's.
//
//cloudmedia:hotpath
func (s *paramsSource) RatesInto(t float64, dst []float64) error {
	w, err := s.p.ChannelWeights()
	if err != nil {
		return err
	}
	if len(dst) != len(w) {
		return rateBufLenError(len(dst), len(w))
	}
	m := s.p.RateMultiplier(t)
	for c := range dst {
		dst[c] = s.p.BaseArrivalRate * w[c] * m
	}
	return nil
}

func (s *paramsSource) CloneSource() Source { return &paramsSource{p: s.p.Clone()} }

func (s *paramsSource) Validate() error { return s.p.Validate() }

// NextArrivalThinned samples the next arrival time for channel c after
// `now`, before `horizon`, from the non-homogeneous Poisson process whose
// intensity the source describes, thinning against envelope (the
// channel's MaxRate, which the event engine precomputes once at
// construction). It returns +Inf if no arrival occurs before the horizon.
// For a parametric source this consumes exactly the random stream
// Params.NextArrival consumes, so replacing one with the other never
// perturbs a seeded run.
func NextArrivalThinned(rng *rand.Rand, src Source, c int, envelope, now, horizon float64) float64 {
	return mathx.NextNHPPArrival(rng, now, horizon, envelope, func(at float64) float64 {
		//cloudmedia:allow noloss -- thinning callback: on a rate error the zero fallback rejects the candidate arrival
		r, _ := src.Rate(c, at)
		return r
	})
}

// Scaled returns a source whose intensity is the given source's times
// factor — how the relative workload-scale knob (WithScale) applies to
// trace-driven scenarios, where rescaling Params.BaseArrivalRate would
// be a silent no-op. The wrapped source is cloned, so the caller's copy
// stays independent.
func Scaled(src Source, factor float64) (Source, error) {
	if src == nil {
		return nil, fmt.Errorf("workload: nil source")
	}
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("workload: invalid source scale %v", factor)
	}
	return &scaledSource{src: src.CloneSource(), factor: factor}, nil
}

type scaledSource struct {
	src    Source
	factor float64
}

func (s *scaledSource) NumChannels() int { return s.src.NumChannels() }

func (s *scaledSource) Rate(channel int, t float64) (float64, error) {
	r, err := s.src.Rate(channel, t)
	return r * s.factor, err
}

func (s *scaledSource) MaxRate(channel int) (float64, error) {
	r, err := s.src.MaxRate(channel)
	return r * s.factor, err
}

func (s *scaledSource) MeanRate(channel int, start, end float64) (float64, error) {
	r, err := s.src.MeanRate(channel, start, end)
	return r * s.factor, err
}

// RatesInto implements BatchSource by delegating to the wrapped source's
// batch path (or RatesInto's per-channel fallback) and scaling in place,
// preserving Rate's r*factor operand order.
// RatesInto scales the wrapped source's batched rates in place.
//
//cloudmedia:hotpath
func (s *scaledSource) RatesInto(t float64, dst []float64) error {
	if err := RatesInto(s.src, t, dst); err != nil {
		return err
	}
	for c := range dst {
		dst[c] *= s.factor
	}
	return nil
}

func (s *scaledSource) CloneSource() Source {
	return &scaledSource{src: s.src.CloneSource(), factor: s.factor}
}

func (s *scaledSource) Validate() error { return s.src.Validate() }

// rateBufLenError is the cold half of the RatesInto length guards, kept
// out of line so the annotated hot bodies contain no fmt machinery.
func rateBufLenError(n, channels int) error {
	return fmt.Errorf("workload: rate buffer length %d != channels %d", n, channels)
}
