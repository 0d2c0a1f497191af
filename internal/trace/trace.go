package trace

import (
	"fmt"
	"math"
	"sort"

	"cloudmedia/internal/workload"
)

// Trace is a per-channel arrival-intensity series: Rates[c][i] is channel
// c's arrival rate (users/s) at instant Times[i]. Between samples the
// intensity is linearly interpolated; before the first and after the last
// sample it holds the boundary value, so a trace replays indefinitely at
// its closing intensity. Times need not be uniform — Resample produces a
// uniform grid when one is wanted.
//
// Trace implements workload.Source. A validated Trace is immutable in
// use: every query is read-only, so one trace may drive concurrent runs
// (each run still clones it via CloneSource, matching the engines'
// ownership convention).
type Trace struct {
	// Times holds the sample instants in seconds, strictly increasing.
	Times []float64 `json:"times"`
	// Rates holds one row per channel, each len(Times) long, users/s.
	Rates [][]float64 `json:"rates"`
}

var _ workload.Source = (*Trace)(nil)

// Validate checks the trace invariants: at least one sample and one
// channel, strictly increasing finite times, and finite non-negative
// rates with every channel row matching the time grid.
func (tr *Trace) Validate() error {
	if tr == nil {
		return fmt.Errorf("trace: nil trace")
	}
	if len(tr.Times) == 0 {
		return fmt.Errorf("trace: no samples")
	}
	if len(tr.Rates) == 0 {
		return fmt.Errorf("trace: no channels")
	}
	for i, t := range tr.Times {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("trace: non-finite time at sample %d", i)
		}
		if i > 0 && t <= tr.Times[i-1] {
			return fmt.Errorf("trace: times not strictly increasing at sample %d (%v after %v)", i, t, tr.Times[i-1])
		}
	}
	for c, row := range tr.Rates {
		if len(row) != len(tr.Times) {
			return fmt.Errorf("trace: channel %d has %d samples, want %d", c, len(row), len(tr.Times))
		}
		for i, r := range row {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("trace: channel %d: non-finite rate at sample %d", c, i)
			}
			if r < 0 {
				return fmt.Errorf("trace: channel %d: negative rate %v at sample %d", c, r, i)
			}
		}
	}
	return nil
}

// NumChannels returns the number of channels the trace describes.
func (tr *Trace) NumChannels() int { return len(tr.Rates) }

// Duration returns the span covered by the samples, seconds.
func (tr *Trace) Duration() float64 {
	if len(tr.Times) == 0 {
		return 0
	}
	return tr.Times[len(tr.Times)-1] - tr.Times[0]
}

// Rate returns channel c's intensity at time t: linear between samples,
// the boundary value outside them.
func (tr *Trace) Rate(channel int, t float64) (float64, error) {
	if channel < 0 || channel >= len(tr.Rates) {
		return 0, fmt.Errorf("trace: channel %d outside [0,%d)", channel, len(tr.Rates))
	}
	row := tr.Rates[channel]
	times := tr.Times
	if len(times) == 0 || len(row) != len(times) {
		return 0, fmt.Errorf("trace: channel %d: malformed series", channel)
	}
	return interpolate(times, row, t), nil
}

// interpolate reads a well-formed series at t: linear between samples,
// the boundary value outside them.
func interpolate(times, row []float64, t float64) float64 {
	if t <= times[0] {
		return row[0]
	}
	last := len(times) - 1
	if t >= times[last] {
		return row[last]
	}
	// First sample strictly after t; the checks above guarantee
	// 1 <= i <= last.
	i := sort.SearchFloat64s(times, t)
	if times[i] == t {
		return row[i]
	}
	f := segmentFraction(t, times[i-1], times[i])
	return row[i-1] + f*(row[i]-row[i-1])
}

// segmentFraction returns (t − t0)/(t1 − t0) for t0 < t < t1. When the
// span t1 − t0 overflows, as between huge times of opposite sign, every
// operand is halved first, so the fraction stays finite; otherwise the
// plain quotient is returned bit for bit.
func segmentFraction(t, t0, t1 float64) float64 {
	if span := t1 - t0; !math.IsInf(span, 0) {
		return (t - t0) / span
	}
	return (t/2 - t0/2) / (t1/2 - t0/2)
}

// RatesInto implements workload.BatchSource: every channel shares the
// same interpolation segment at a fixed instant, so the binary search over
// Times runs once here instead of once per channel. Each entry follows
// Rate's exact arithmetic (row[i-1] + f*(row[i]-row[i-1]) with the same
// segmentFraction f), so the batched values are bit-identical to
// per-channel Rate calls.
//
//cloudmedia:hotpath
func (tr *Trace) RatesInto(t float64, dst []float64) error {
	if len(dst) != len(tr.Rates) {
		return rateBufLenError(len(dst), len(tr.Rates))
	}
	times := tr.Times
	if len(times) == 0 {
		return errNoSamples()
	}
	last := len(times) - 1
	switch {
	case t <= times[0]:
		for c, row := range tr.Rates {
			dst[c] = row[0]
		}
	case t >= times[last]:
		for c, row := range tr.Rates {
			dst[c] = row[last]
		}
	default:
		i := sort.SearchFloat64s(times, t)
		if times[i] == t {
			for c, row := range tr.Rates {
				dst[c] = row[i]
			}
			return nil
		}
		f := segmentFraction(t, times[i-1], times[i])
		for c, row := range tr.Rates {
			dst[c] = row[i-1] + f*(row[i]-row[i-1])
		}
	}
	return nil
}

// MaxRate returns the channel's peak sampled intensity — an exact
// envelope, since linear interpolation and constant extrapolation never
// exceed the samples.
func (tr *Trace) MaxRate(channel int) (float64, error) {
	if channel < 0 || channel >= len(tr.Rates) {
		return 0, fmt.Errorf("trace: channel %d outside [0,%d)", channel, len(tr.Rates))
	}
	var max float64
	for _, r := range tr.Rates[channel] {
		if r > max {
			max = r
		}
	}
	return max, nil
}

// MeanRate returns the exact mean of the piecewise-linear intensity over
// [start, end), including the constant extrapolation outside the samples.
// A span or an integral beyond float range takes meanRateScaled instead,
// so the mean stays finite; every other read is the plain integral.
func (tr *Trace) MeanRate(channel int, start, end float64) (float64, error) {
	if channel < 0 || channel >= len(tr.Rates) {
		return 0, fmt.Errorf("trace: channel %d outside [0,%d)", channel, len(tr.Rates))
	}
	if end <= start {
		return 0, nil
	}
	row := tr.Rates[channel]
	if len(tr.Times) == 0 || len(row) != len(tr.Times) {
		return 0, fmt.Errorf("trace: channel %d: malformed series", channel)
	}
	span := end - start
	if math.IsInf(span, 0) {
		return tr.meanRateScaled(channel, start, end), nil
	}
	var integral float64
	tr.segments(channel, start, end, func(r, lo, hi float64) { integral += r * (hi - lo) })
	if mean := integral / span; !math.IsInf(mean, 0) {
		return mean, nil
	}
	return tr.meanRateScaled(channel, start, end), nil
}

// segments calls add with the mean intensity of every piece of the
// channel's series inside [start, end): the flat lead before the first
// sample, each linear segment, and the flat tail after the last. The
// caller has checked the channel and the series.
func (tr *Trace) segments(channel int, start, end float64, add func(r, lo, hi float64)) {
	row, times := tr.Rates[channel], tr.Times
	last := len(times) - 1
	if start < times[0] {
		add(row[0], start, math.Min(end, times[0]))
	}
	for i := 0; i < last; i++ {
		lo := math.Max(start, times[i])
		hi := math.Min(end, times[i+1])
		if hi <= lo {
			continue
		}
		add((interpolate(times, row, lo)+interpolate(times, row, hi))/2, lo, hi)
	}
	if end > times[last] {
		add(row[last], math.Max(start, times[last]), end)
	}
}

// meanRateScaled is MeanRate for a span or an integral beyond float range:
// each piece is weighted by its share of the span, measured over halved
// times, so neither a width nor a partial sum leaves float range. A mean
// lies within the samples it averages, so the sum is clamped to the row's
// range against rounding.
func (tr *Trace) meanRateScaled(channel int, start, end float64) float64 {
	span := end/2 - start/2
	var mean float64
	row := tr.Rates[channel]
	tr.segments(channel, start, end, func(r, lo, hi float64) {
		if math.IsInf(r, 0) { // the two endpoint rates overflowed their sum
			r = interpolate(tr.Times, row, lo)/2 + interpolate(tr.Times, row, hi)/2
		}
		mean += r * ((hi/2 - lo/2) / span)
	})
	lo, hi := math.Inf(1), 0.0
	for _, r := range row {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	return math.Min(math.Max(mean, lo), hi)
}

// CloneSource returns a deep copy as a workload.Source.
func (tr *Trace) CloneSource() workload.Source { return tr.Clone() }

// Clone returns a deep copy: times and every channel row are reallocated.
func (tr *Trace) Clone() *Trace {
	out := &Trace{
		Times: append([]float64(nil), tr.Times...),
		Rates: make([][]float64, len(tr.Rates)),
	}
	for c, row := range tr.Rates {
		out.Rates[c] = append([]float64(nil), row...)
	}
	return out
}

// Scale returns a copy with every intensity multiplied by factor — the
// trace counterpart of the workload scale knob.
func (tr *Trace) Scale(factor float64) (*Trace, error) {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("trace: invalid scale factor %v", factor)
	}
	out := tr.Clone()
	for _, row := range out.Rates {
		for i := range row {
			row[i] *= factor
		}
	}
	return out, nil
}

// Resample returns the trace re-sampled onto a uniform grid of the given
// step covering the original span, interpolating linearly. The last
// sample instant is included even when the span is not a multiple of the
// step, so no trailing demand is dropped.
func (tr *Trace) Resample(stepSeconds float64) (*Trace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if stepSeconds <= 0 || math.IsNaN(stepSeconds) || math.IsInf(stepSeconds, 0) {
		return nil, fmt.Errorf("trace: non-positive resample step %v", stepSeconds)
	}
	// Bound the grid in float space before allocating anything: a tiny
	// step over a long span must fail, not OOM (the int conversion alone
	// could overflow and defeat an integer check).
	if samples := tr.Duration()/stepSeconds + 2; samples*float64(len(tr.Rates)) > maxTraceCells {
		return nil, fmt.Errorf("trace: resample grid too large (~%g samples × %d channels)", samples, len(tr.Rates))
	}
	start, end := tr.Times[0], tr.Times[len(tr.Times)-1]
	var times []float64
	for t := start; t < end; t += stepSeconds {
		times = append(times, t)
	}
	times = append(times, end)
	out := &Trace{Times: times, Rates: make([][]float64, len(tr.Rates))}
	for c, src := range tr.Rates {
		row := make([]float64, len(times))
		for i, t := range times {
			row[i] = interpolate(tr.Times, src, t)
		}
		out.Rates[c] = row
	}
	return out, nil
}

// rateBufLenError and errNoSamples are the cold halves of RatesInto's
// guards, kept out of line so the annotated hot body contains no fmt
// machinery.
func rateBufLenError(n, channels int) error {
	return fmt.Errorf("trace: rate buffer length %d != channels %d", n, channels)
}

func errNoSamples() error { return fmt.Errorf("trace: no samples") }
