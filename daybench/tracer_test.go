package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// manualClock is a tracer clock that moves only when the test sets it.
type manualClock struct{ now time.Duration }

func (c *manualClock) read() time.Duration { return c.now }

func TestSelfTimeSubtractsChildSpansAndCalls(t *testing.T) {
	clock := &manualClock{}
	tr := newTracerClock(clock.read)
	root := tr.Begin("root", -1) // [0, 100)
	clock.now = 10
	child := tr.Begin("child", 1) // [10, 40)
	tr.Observe("leaf", 3)
	clock.now = 40
	tr.End(child)
	tr.Observe("leaf", 5)
	clock.now = 100
	tr.End(root)
	tr.Observe("leaf", 7) // outside every span

	self := tr.SelfTimes()
	if got, want := self[root], time.Duration(100-30-5); got != want {
		t.Errorf("root self %v, want %v", got, want)
	}
	if got, want := self[child], time.Duration(30-3); got != want {
		t.Errorf("child self %v, want %v", got, want)
	}
	if got := tr.Spans()[child].Parent; got != root {
		t.Errorf("child parent %d, want %d", got, root)
	}
	if n, busy := tr.CallTotals("leaf"); n != 3 || busy != 15 {
		t.Errorf("leaf calls %d busy %v, want 3 and 15", n, busy)
	}
	// The top-level span plus the stray call: self times and call busy
	// times add up to it exactly.
	if got, want := tr.RootTime(), time.Duration(107); got != want {
		t.Errorf("root time %v, want %v", got, want)
	}
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if sum+15 != tr.RootTime() {
		t.Errorf("self %v + calls 15 != root time %v", sum, tr.RootTime())
	}
}

func TestEndClosesSpansLeftOpenInside(t *testing.T) {
	clock := &manualClock{}
	tr := newTracerClock(clock.read)
	outer := tr.Begin("outer", -1)
	inner := tr.Begin("inner", -1)
	clock.now = 9
	tr.End(outer)
	if tr.Current() != -1 {
		t.Fatalf("span %d still open", tr.Current())
	}
	if end := tr.Spans()[inner].End; end != 9 {
		t.Errorf("inner ended at %v, want 9", end)
	}
}

func TestWriteEmitsOneObjectPerLine(t *testing.T) {
	clock := &manualClock{}
	tr := newTracerClock(clock.read)
	id := tr.Begin("setup", 0)
	tr.Observe("workload.source", 2)
	clock.now = 5
	tr.End(id)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), buf.String())
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil || s.Name != "setup" || s.End != 5 || s.Parent != -1 {
		t.Errorf("span line %q decoded to %+v (%v)", lines[0], s, err)
	}
	var c Calls
	if err := json.Unmarshal([]byte(lines[1]), &c); err != nil || c.Count != 1 || c.Parent != id {
		t.Errorf("call line %q decoded to %+v (%v)", lines[1], c, err)
	}
}

func TestTailReportsPercentileOnlyWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return out
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		rationale string
	}{
		{1000, 990, 99, "rank 990 leaves exactly 10 beyond"},
		{999, 999, 100, "rank 990 leaves 9 beyond: report the max"},
		{1441, 1427, 99, "a minute-round day"},
		{25, 25, 100, "an hourly day"},
		{0, 0, 0, "no samples"},
	} {
		v, p := tail(seq(tc.n), 99)
		if v != tc.value || p != tc.pct {
			t.Errorf("n=%d (%s): got %v at p%v, want %v at p%v", tc.n, tc.rationale, v, p, tc.value, tc.pct)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestFluidStepsRepeatsTheStepLoop(t *testing.T) {
	// 0→0.5: one partial step; 0.5→3: 1.5, 2.5, 3; a repeated barrier
	// takes none; 3→10: seven.
	if got := fluidSteps([]float64{0.5, 3, 3, 10}, 1); got != 11 {
		t.Errorf("got %d steps, want 11", got)
	}
}
