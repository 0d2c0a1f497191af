package core

import (
	"fmt"
)

// Predictor forecasts a channel's next-interval arrival rate from the
// history of observed per-interval rates (oldest first, most recent last).
//
// The paper provisions with the last interval's observation and notes that
// "more accurate prediction methods based on historical data collected over
// more intervals can be applied" as future work — this interface is that
// extension point. All implementations must be deterministic.
type Predictor interface {
	// Predict returns the forecast arrival rate for the next interval.
	// history is never empty.
	Predict(history []float64) float64
}

// extender is implemented by predictors whose forecast is a left fold
// over the history: extend(Predict(h), x) equals Predict(h ++ [x]) bit
// for bit, so a forecast chain can grow by one step in O(1) instead of
// re-folding the whole history.
type extender interface {
	extend(prev, x float64) float64
}

// LastInterval is the paper's predictor: next interval's rate equals the
// rate just observed (Sec. V-B).
type LastInterval struct{}

// Predict implements Predictor.
func (LastInterval) Predict(history []float64) float64 {
	return history[len(history)-1]
}

func (LastInterval) extend(_, x float64) float64 { return x }

// EWMA forecasts with an exponentially weighted moving average:
// f ← α·observed + (1−α)·f. Smooths arrival noise at the cost of lagging
// genuine ramps like flash crowds.
type EWMA struct {
	// Alpha is the smoothing weight in (0, 1]; 1 degenerates to
	// LastInterval.
	Alpha float64
}

// Validate checks the smoothing weight.
func (e EWMA) Validate() error {
	if !(e.Alpha > 0 && e.Alpha <= 1) { // NaN fails too
		return fmt.Errorf("core: EWMA alpha %v outside (0,1]", e.Alpha)
	}
	return nil
}

// Predict implements Predictor.
func (e EWMA) Predict(history []float64) float64 {
	f := history[0]
	for _, x := range history[1:] {
		f = e.extend(f, x)
	}
	return f
}

// extend is one step of Predict's fold.
func (e EWMA) extend(prev, x float64) float64 {
	return e.Alpha*x + (1-e.Alpha)*prev
}

// PeakOfWindow forecasts the maximum over the trailing window — a
// conservative rule that keeps capacity at the recent peak, trading rental
// cost for flash-crowd robustness.
type PeakOfWindow struct {
	// Window is the number of trailing intervals considered; ≤0 means all.
	Window int
}

// Predict implements Predictor.
func (p PeakOfWindow) Predict(history []float64) float64 {
	start := 0
	if p.Window > 0 && len(history) > p.Window {
		start = len(history) - p.Window
	}
	peak := history[start]
	for _, x := range history[start+1:] {
		if x > peak {
			peak = x
		}
	}
	return peak
}

// DiurnalMemory forecasts with the observation one period ago (e.g. 24
// intervals for hourly provisioning over a daily pattern), falling back to
// the last interval until a full period of history exists. It exploits the
// strong day-over-day repetition of VoD demand.
type DiurnalMemory struct {
	// Period is the number of intervals per cycle; must be positive.
	Period int
}

// Validate checks the period.
func (d DiurnalMemory) Validate() error {
	if d.Period <= 0 {
		return fmt.Errorf("core: diurnal period %d must be positive", d.Period)
	}
	return nil
}

// Predict implements Predictor.
func (d DiurnalMemory) Predict(history []float64) float64 {
	// The next interval is one period after history index len−Period.
	idx := len(history) - d.Period
	if idx < 0 {
		return history[len(history)-1]
	}
	// Blend the same-time-yesterday observation with the latest one so a
	// day-over-day trend shift is not ignored entirely.
	return 0.7*history[idx] + 0.3*history[len(history)-1]
}
