package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudmedia/internal/workload"
)

// LiveSource is a workload.Source fed incrementally while a run is in
// flight: a line-protocol stream (stdin, a socket) or direct Ingest calls
// append per-channel rate samples, and the engines read the growing
// series concurrently. Between samples the intensity is linear; before
// the first and after the last sample it holds the boundary value, so the
// run keeps serving the latest observed rates until the next line
// arrives.
//
// Two deliberate deviations from the batch sources, both consequences of
// being live:
//
//   - CloneSource returns the receiver itself, not a deep copy: a live
//     feed is a shared stream, and a private copy would silently freeze
//     the clone at the rates ingested so far. Concurrent runs therefore
//     observe the same feed.
//   - The thinning envelope (MaxRate) is fixed at construction instead of
//     derived from the series: non-homogeneous Poisson thinning needs an
//     upper bound on rates that have not arrived yet. Ingested rates
//     above the envelope are clamped to it (counted in Clamped), so the
//     sampling stays correct at the cost of flattening surges beyond the
//     declared ceiling.
//
// One caveat inherent to feeding a discrete-event engine: each channel's
// next arrival is sampled when the previous one fires, so a rate spike
// ingested between two arrivals is seen only from the next re-arm
// onwards — ingress latency is bounded by one inter-arrival gap (plus
// one thinning horizon for idle channels).
type LiveSource struct {
	mu       sync.RWMutex
	channels int
	envelope float64 // per-channel thinning ceiling, users/s
	retain   float64 // sample retention window, seconds
	times    []float64
	samples  [][]float64 // sample-major: samples[i][c]
	clamped  int
	dropped  int
}

var _ workload.Source = (*LiveSource)(nil)
var _ workload.BatchSource = (*LiveSource)(nil)

// DefaultRetainSeconds bounds the live series: samples older than this
// much simulated time behind the newest one are pruned, keeping the
// source's memory independent of run length (a day of 15-minute samples
// is ~100 points per channel).
const DefaultRetainSeconds = 48 * 3600

// NewLiveSource builds an empty live source for the given channel count.
// maxRate is the per-channel rate ceiling used as the thinning envelope;
// ingested rates above it are clamped.
func NewLiveSource(channels int, maxRate float64) (*LiveSource, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("serve: non-positive channel count %d", channels)
	}
	if maxRate <= 0 || math.IsNaN(maxRate) || math.IsInf(maxRate, 0) {
		return nil, fmt.Errorf("serve: invalid rate ceiling %v", maxRate)
	}
	return &LiveSource{channels: channels, envelope: maxRate, retain: DefaultRetainSeconds}, nil
}

// SetRetention overrides the sample retention window in simulated
// seconds; 0 restores the default.
func (s *LiveSource) SetRetention(seconds float64) error {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("serve: invalid retention %v", seconds)
	}
	if seconds == 0 {
		seconds = DefaultRetainSeconds
	}
	s.mu.Lock()
	s.retain = seconds
	s.mu.Unlock()
	return nil
}

// Ingest appends one sample: every channel's arrival rate at simulated
// time t. Times must be strictly increasing across calls; a stale sample
// is dropped (counted in Dropped) rather than treated as an error, so a
// replayed feed that overlaps the history keeps streaming.
func (s *LiveSource) Ingest(t float64, rates []float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("serve: non-finite sample time %v", t)
	}
	if len(rates) != s.channels {
		return fmt.Errorf("serve: sample has %d rates, want %d", len(rates), s.channels)
	}
	row := make([]float64, len(rates))
	for c, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("serve: channel %d: invalid rate %v", c, r)
		}
		row[c] = r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.times); n > 0 && t <= s.times[n-1] {
		s.dropped++
		return nil
	}
	for c, r := range row {
		if r > s.envelope {
			row[c] = s.envelope
			s.clamped++
		}
	}
	s.times = append(s.times, t)
	s.samples = append(s.samples, row)
	// Prune everything older than the retention window, keeping at least
	// two samples so interpolation always has a segment.
	cut := 0
	for cut < len(s.times)-2 && s.times[cut] < t-s.retain {
		cut++
	}
	if cut > 0 {
		s.times = append(s.times[:0], s.times[cut:]...)
		s.samples = append(s.samples[:0], s.samples[cut:]...)
	}
	return nil
}

// Clamped returns how many ingested rates exceeded the envelope and were
// clamped; Dropped how many whole samples arrived out of order.
func (s *LiveSource) Clamped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clamped
}

// Dropped returns how many samples were discarded as non-monotonic.
func (s *LiveSource) Dropped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Samples returns the number of samples currently retained.
func (s *LiveSource) Samples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.times)
}

// Feed ingests the line protocol from r until EOF, a malformed line, or
// context cancellation. Each line is a trace-CSV row — "time_s,rate0,
// rate1,…" with one rate per channel. Blank lines and '#' comments are
// skipped, and so is a header: the first other line, when its time field
// is not a number. So `cloudmedia trace gen` output pipes straight in:
//
//	cloudmedia trace gen -kind weekweekend -days 2 | cloudmedia serve -stdin …
func (s *LiveSource) Feed(ctx context.Context, r io.Reader) error {
	sc := bufio.NewScanner(r)
	line := 0
	first := true // the next content line may be the header
	for sc.Scan() {
		line++
		if err := ctx.Err(); err != nil {
			return err
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		header := first
		first = false
		fields := strings.Split(text, ",")
		t, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			if header {
				continue // header row ("time_s,ch0,…")
			}
			return fmt.Errorf("serve: line %d: bad time %q", line, fields[0])
		}
		if len(fields)-1 != s.channels {
			return fmt.Errorf("serve: line %d: %d rates, want %d", line, len(fields)-1, s.channels)
		}
		rates := make([]float64, s.channels)
		for c, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("serve: line %d: bad rate %q", line, f)
			}
			rates[c] = v
		}
		if err := s.Ingest(t, rates); err != nil {
			return fmt.Errorf("serve: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// NumChannels implements workload.Source.
func (s *LiveSource) NumChannels() int { return s.channels }

// Rate implements workload.Source: linear between samples, the boundary
// value outside them, 0 before any sample arrives.
func (s *LiveSource) Rate(channel int, t float64) (float64, error) {
	if channel < 0 || channel >= s.channels {
		return 0, fmt.Errorf("serve: channel %d outside [0,%d)", channel, s.channels)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.times)
	if n == 0 {
		return 0, nil
	}
	if t <= s.times[0] {
		return s.samples[0][channel], nil
	}
	if t >= s.times[n-1] {
		return s.samples[n-1][channel], nil
	}
	i := sort.SearchFloat64s(s.times, t)
	if s.times[i] == t {
		return s.samples[i][channel], nil
	}
	f := segmentFraction(t, s.times[i-1], s.times[i])
	return s.samples[i-1][channel] + f*(s.samples[i][channel]-s.samples[i-1][channel]), nil
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

// RatesInto implements workload.BatchSource under one lock acquisition
// and one segment search.
//
//cloudmedia:hotpath
func (s *LiveSource) RatesInto(t float64, dst []float64) error {
	if len(dst) != s.channels {
		return rateBufLenError(len(dst), s.channels)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.times)
	if n == 0 {
		for c := range dst {
			dst[c] = 0
		}
		return nil
	}
	switch {
	case t <= s.times[0]:
		copy(dst, s.samples[0])
	case t >= s.times[n-1]:
		copy(dst, s.samples[n-1])
	default:
		i := sort.SearchFloat64s(s.times, t)
		if s.times[i] == t {
			copy(dst, s.samples[i])
			return nil
		}
		f := segmentFraction(t, s.times[i-1], s.times[i])
		for c := range dst {
			dst[c] = s.samples[i-1][c] + f*(s.samples[i][c]-s.samples[i-1][c])
		}
	}
	return nil
}

// MaxRate implements workload.Source: the fixed envelope (see the type
// comment for why it cannot follow the series).
func (s *LiveSource) MaxRate(channel int) (float64, error) {
	if channel < 0 || channel >= s.channels {
		return 0, fmt.Errorf("serve: channel %d outside [0,%d)", channel, s.channels)
	}
	return s.envelope, nil
}

// MeanRate implements workload.Source by midpoint sampling of Rate — an
// approximation, adequate for the bootstrap estimate and oracle feeds
// that consume it.
func (s *LiveSource) MeanRate(channel int, start, end float64) (float64, error) {
	if end <= start {
		return 0, nil
	}
	const steps = 12
	dt := (end - start) / steps
	var sum float64
	for i := 0; i < steps; i++ {
		r, err := s.Rate(channel, start+(float64(i)+0.5)*dt)
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum / steps, nil
}

// CloneSource implements workload.Source by returning the receiver: a
// live feed is shared, not copied (see the type comment).
func (s *LiveSource) CloneSource() workload.Source { return s }

// Validate implements workload.Source.
func (s *LiveSource) Validate() error {
	if s.channels <= 0 {
		return fmt.Errorf("serve: non-positive channel count %d", s.channels)
	}
	if s.envelope <= 0 {
		return fmt.Errorf("serve: invalid rate ceiling %v", s.envelope)
	}
	return nil
}

// rateBufLenError is the cold half of RatesInto's length guard, kept out
// of line so the annotated hot body contains no fmt machinery.
func rateBufLenError(n, channels int) error {
	return fmt.Errorf("serve: rate buffer length %d != channels %d", n, channels)
}
