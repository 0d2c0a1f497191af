package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"
)

// Span is one timed interval of a traced run, recorded at a layer
// boundary the benchmark can see from outside the program.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 at the top level.
	Parent int `json:"parent"`
	// Round is the provisioning round the span belongs to (0 is the t=0
	// bootstrap), -1 for spans that cover several rounds.
	Round int `json:"round"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Calls aggregates leaf calls too frequent to keep one span each — demand
// rate queries, forecasts — under the span that was open when they ran.
type Calls struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Count  int           `json:"count"`
	Busy   time.Duration `json:"busy_ns"`
}

// Tracer keeps a run's spans in memory until Write. It is not safe for
// concurrent use: traced runs are serial, so every hook fires on the
// simulation goroutine.
type Tracer struct {
	now   func() time.Duration
	spans []Span
	open  []int // stack of open span indices, innermost last
	calls []Calls
	index map[callKey]int
}

type callKey struct {
	name   string
	parent int
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	origin := time.Now()
	return newTracerClock(func() time.Duration { return time.Since(origin) })
}

func newTracerClock(now func() time.Duration) *Tracer {
	return &Tracer{now: now, index: make(map[callKey]int)}
}

// Now reads the tracer's clock.
func (t *Tracer) Now() time.Duration { return t.now() }

// Begin opens a span inside the innermost open one and returns its id.
func (t *Tracer) Begin(name string, round int) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: t.Current(), Round: round})
	t.open = append(t.open, id)
	return id
}

// End closes span id and any spans still open inside it.
func (t *Tracer) End(id int) {
	at := t.now()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].End = at
		if top == id {
			return
		}
	}
}

// Current is the innermost open span, -1 when none is open.
func (t *Tracer) Current() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// Observe adds one leaf call of duration d under the innermost open span.
func (t *Tracer) Observe(name string, d time.Duration) {
	key := callKey{name, t.Current()}
	i, ok := t.index[key]
	if !ok {
		i = len(t.calls)
		t.calls = append(t.calls, Calls{Name: name, Parent: key.parent})
		t.index[key] = i
	}
	t.calls[i].Count++
	t.calls[i].Busy += d
}

// Spans returns the recorded spans (shared, not copied).
func (t *Tracer) Spans() []Span { return t.spans }

// CallTotals sums the aggregated calls named name across all parents.
func (t *Tracer) CallTotals(name string) (count int, busy time.Duration) {
	for _, c := range t.calls {
		if c.Name == name {
			count += c.Count
			busy += c.Busy
		}
	}
	return count, busy
}

// SelfTimes returns each span's self time: its duration minus the part
// its child spans and aggregated child calls cover.
func (t *Tracer) SelfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Duration()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Duration()
		}
	}
	for _, c := range t.calls {
		if c.Parent >= 0 {
			self[c.Parent] -= c.Busy
		}
	}
	return self
}

// RootTime sums the durations of the top-level spans and of calls made
// outside every span: all the time the trace attributes to some layer.
func (t *Tracer) RootTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.Duration()
		}
	}
	for _, c := range t.calls {
		if c.Parent < 0 {
			d += c.Busy
		}
	}
	return d
}

// Write emits every span, then every call aggregate, one JSON object a
// line.
func (t *Tracer) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, c := range t.calls {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// tail returns the p-th percentile (nearest rank) of samples when at least
// minBeyond samples lie beyond it, and otherwise the maximum; pct says
// which was reported (p or 100). Empty input yields zeros.
func tail(samples []float64, p float64) (value, pct float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if len(sorted)-rank >= minBeyond {
		return sorted[rank-1], p
	}
	return sorted[len(sorted)-1], 100
}

// median returns the middle of samples (the mean of the two middle values
// for an even count); empty input yields 0.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
