package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"cloudmedia/internal/modes"
)

func TestNewClockValidation(t *testing.T) {
	if _, err := NewClock(modes.ClockReal, -1); err == nil {
		t.Fatal("negative time scale accepted")
	}
	if _, err := NewClock(modes.ClockReal, math.NaN()); err == nil {
		t.Fatal("NaN time scale accepted")
	}
	if _, err := NewClock(modes.ClockReal, math.Inf(1)); err == nil {
		t.Fatal("infinite time scale accepted")
	}
	if _, err := NewClock(modes.ClockMode(0), 1); err == nil {
		t.Fatal("unset clock mode accepted")
	}
	c, err := NewClock(modes.ClockReal, 0)
	if err != nil {
		t.Fatalf("zero time scale rejected: %v", err)
	}
	if c.mode != modes.ClockReal {
		t.Fatalf("mode = %v, want real", c.mode)
	}
}

func TestRealClockPaces(t *testing.T) {
	// 100 simulated seconds at 1000x should take ~100ms of real time.
	c, err := NewClock(modes.ClockReal, 1000)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	start := time.Now()
	if err := c.WaitUntil(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("waited %v for 100 sim-seconds at 1000x, want ~100ms", elapsed)
	}
	if re := c.RealElapsed(); re <= 0 {
		t.Fatalf("RealElapsed = %v after waiting", re)
	}
}

func TestRealClockNoDrift(t *testing.T) {
	// Pacing is anchored to the start instant: a barrier already in the
	// past is not waited on, so late intervals do not push later ones.
	c, err := NewClock(modes.ClockReal, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(20 * time.Millisecond) // now ~20000 sim-seconds "late"
	start := time.Now()
	if err := c.WaitUntil(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("past barrier still waited %v", elapsed)
	}
}

func TestRealClockCancel(t *testing.T) {
	c, err := NewClock(modes.ClockReal, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.WaitUntil(ctx, 3600) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("WaitUntil error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitUntil did not honour cancellation")
	}
}

func TestSimulatedClockNeverWaits(t *testing.T) {
	c, err := NewClock(modes.ClockSimulated, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	start := time.Now()
	for s := 0.0; s < 1e6; s += 1e5 {
		if err := c.WaitUntil(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("simulated clock spent %v pacing", elapsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.WaitUntil(ctx, 0); err != context.Canceled {
		t.Fatalf("cancelled WaitUntil = %v, want context.Canceled", err)
	}
}

func TestClockStartIdempotent(t *testing.T) {
	c, err := NewClock(modes.ClockReal, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(5 * time.Millisecond)
	first := c.RealElapsed()
	c.Start() // must not re-anchor
	if second := c.RealElapsed(); second < first {
		t.Fatalf("RealElapsed went backwards after second Start: %v -> %v", first, second)
	}
}
