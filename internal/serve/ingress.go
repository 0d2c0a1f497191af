package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"cloudmedia/internal/trace"
	"cloudmedia/internal/workload"
)

// LiveSource is a workload.Source fed incrementally while a run is in
// flight: a line-protocol stream (stdin, a socket) or direct Ingest calls
// append per-channel rate samples, and the engines read the growing
// series concurrently. The samples are a trace.Trace, held under the
// source's lock, and every read is that trace's read: linear between
// samples, the boundary value outside them, MeanRate the exact integral.
// So the run keeps serving the latest observed rates until the next line
// arrives, and a live feed replaying a trace plans exactly as the trace.
// The source itself adds only what being live needs: 0 before the first
// sample, the clamp to the envelope, dropping stale samples, and the
// retention window.
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
	envelope float64     // per-channel thinning ceiling, users/s
	retain   float64     // sample retention window, seconds
	tr       trace.Trace // the retained samples, channel-major
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
	s := &LiveSource{channels: channels, envelope: maxRate, retain: DefaultRetainSeconds}
	s.tr.Rates = make([][]float64, channels)
	return s, nil
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
	for c, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("serve: channel %d: invalid rate %v", c, r)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	times := s.tr.Times
	if n := len(times); n > 0 && t <= times[n-1] {
		s.dropped++
		return nil
	}
	times = append(times, t)
	for c, r := range rates {
		if r > s.envelope {
			r = s.envelope
			s.clamped++
		}
		s.tr.Rates[c] = append(s.tr.Rates[c], r)
	}
	// Prune everything older than the retention window, keeping at least
	// two samples so interpolation always has a segment. Re-slicing keeps
	// the prune O(1); append reallocates the live tail once it runs out
	// of room, so the memory stays bounded by the window.
	cut := 0
	for cut < len(times)-2 && times[cut] < t-s.retain {
		cut++
	}
	s.tr.Times = times[cut:]
	for c, row := range s.tr.Rates {
		s.tr.Rates[c] = row[cut:]
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
	return len(s.tr.Times)
}

// Feed ingests the line protocol from r until EOF, a malformed line, or
// context cancellation. Each line is a trace-CSV row — "time_s,rate0,
// rate1,…" with one rate per channel — parsed by the trace codec's own
// trace.ParseRow. Blank lines and '#' comments are skipped, and so is a
// header: the first other line, when its time field is not a number. So
// `cloudmedia trace gen` output pipes straight in:
//
//	cloudmedia trace gen -kind weekweekend -days 2 | cloudmedia serve -stdin …
func (s *LiveSource) Feed(ctx context.Context, r io.Reader) error {
	sc := bufio.NewScanner(r)
	rates := make([]float64, s.channels)
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
		t, err := trace.ParseRow(text, rates)
		if err != nil {
			if header && errors.Is(err, trace.ErrBadTime) {
				continue // header row ("time_s,ch0,…")
			}
			return fmt.Errorf("serve: line %d: %w", line, err)
		}
		if err := s.Ingest(t, rates); err != nil {
			return fmt.Errorf("serve: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// NumChannels implements workload.Source.
func (s *LiveSource) NumChannels() int { return s.channels }

// Rate implements workload.Source: the trace's Rate, 0 before any sample
// arrives.
func (s *LiveSource) Rate(channel int, t float64) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tr.Times) == 0 {
		return 0, s.checkChannel(channel)
	}
	return s.tr.Rate(channel, t)
}

// RatesInto implements workload.BatchSource under one lock acquisition:
// the trace's RatesInto, zeros before any sample arrives.
//
//cloudmedia:hotpath
func (s *LiveSource) RatesInto(t float64, dst []float64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tr.Times) == 0 && len(dst) == s.channels {
		clear(dst)
		return nil
	}
	return s.tr.RatesInto(t, dst)
}

// MaxRate implements workload.Source: the fixed envelope (see the type
// comment for why it cannot follow the series).
func (s *LiveSource) MaxRate(channel int) (float64, error) {
	if err := s.checkChannel(channel); err != nil {
		return 0, err
	}
	return s.envelope, nil
}

// MeanRate implements workload.Source: the trace's exact mean of the
// retained series, 0 before any sample arrives.
func (s *LiveSource) MeanRate(channel int, start, end float64) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tr.Times) == 0 {
		return 0, s.checkChannel(channel)
	}
	return s.tr.MeanRate(channel, start, end)
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

func (s *LiveSource) checkChannel(channel int) error {
	if channel < 0 || channel >= s.channels {
		return fmt.Errorf("serve: channel %d outside [0,%d)", channel, s.channels)
	}
	return nil
}
