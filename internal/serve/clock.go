// Package serve holds the live control plane's building blocks: the
// pacing clock, the streaming arrival ingress, the rolling metric store
// with its Prometheus-style exposition, and the timed policy wrapper. The
// public facade that assembles them around a simulate.Scenario is
// cloudmedia/pkg/serve; see DESIGN.md "Real-time serving".
package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"cloudmedia/internal/modes"
)

// Clock paces simulated time against real time. A ClockReal clock
// sleeps so simulated second s arrives at start + s/scale. Pacing is
// anchored to the start instant, not the previous wait, so scheduling
// jitter and slow intervals never accumulate drift: a barrier the
// engines reach late is simply not waited on. A ClockSimulated clock
// applies no pacing: WaitUntil only honours cancellation, so a
// simulated-clock serve run is the batch run plus observability.
// WaitUntil is called from the engines' pacing hook (sim.Config.Pacer)
// on the simulation goroutine; RealElapsed may be called concurrently
// from HTTP handlers.
type Clock struct {
	mode  modes.ClockMode
	scale float64

	mu    sync.Mutex
	start time.Time
}

// NewClock builds a clock for the given mode. timeScale compresses
// simulated time for ClockReal: simSeconds/timeScale real seconds pass
// per simulated second's worth of pacing (1–24× covers the paper's
// day-long traces; larger factors are valid and used by tests and smoke
// runs). 0 means 1. ClockSimulated ignores the scale.
func NewClock(mode modes.ClockMode, timeScale float64) (*Clock, error) {
	if timeScale == 0 {
		timeScale = 1
	}
	if timeScale < 0 || math.IsNaN(timeScale) || math.IsInf(timeScale, 0) {
		return nil, fmt.Errorf("serve: invalid time scale %v", timeScale)
	}
	if mode != modes.ClockReal && mode != modes.ClockSimulated {
		return nil, fmt.Errorf("serve: invalid clock mode %d", int(mode))
	}
	return &Clock{mode: mode, scale: timeScale}, nil
}

// Start anchors the clock at the current wall time. Idempotent.
func (c *Clock) Start() { c.anchor() }

// anchor starts the clock unless it has started and returns the start.
func (c *Clock) anchor() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start.IsZero() {
		c.start = time.Now()
	}
	return c.start
}

// WaitUntil blocks until the wall clock reaches the real time
// corresponding to simSeconds of simulated time, or the context is
// cancelled (returning the context error). A simulated clock returns
// at once.
func (c *Clock) WaitUntil(ctx context.Context, simSeconds float64) error {
	if c.mode == modes.ClockSimulated {
		return ctx.Err()
	}
	due := c.anchor().Add(time.Duration(simSeconds / c.scale * float64(time.Second)))
	d := time.Until(due)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// RealElapsed returns the wall-clock seconds since Start (0 before).
func (c *Clock) RealElapsed() float64 {
	c.mu.Lock()
	start := c.start
	c.mu.Unlock()
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Seconds()
}
