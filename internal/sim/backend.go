package sim

import (
	"cloudmedia/internal/queueing"
)

// Backend is the simulation-engine seam: the exact surface the
// provisioning controller (internal/core) and the public run loop
// (pkg/simulate, internal/experiments) consume. Two implementations
// exist, selected by the scenario's fidelity:
//
//   - *Simulator (this package): the per-viewer discrete-event engine.
//     Every viewer is an object with its own playback state and cached
//     chunks; memory and event count grow linearly with the crowd.
//   - *fluid.Backend (internal/fluid): the aggregate cohort engine. State
//     is O(channels × chunks) regardless of crowd size, so million-viewer
//     scenarios integrate in seconds at the cost of per-viewer detail.
//
// Both engines embed *Engine, which implements Now, RunUntil,
// ScheduleAt and ScheduleRepeating: the one place that paces (see
// Config.Pacer), advances the engine's state between control barriers
// and runs the control callbacks. Both are single-threaded at the API:
// all interaction must happen from scheduled callbacks or between
// RunUntil calls. The controller only ever talks to a backend at
// provisioning-interval boundaries, which is what lets the event engine
// shard its channels across a worker pool internally.
type Backend interface {
	// Now returns the simulated clock in seconds.
	Now() float64
	// RunUntil advances the simulation to time t (seconds).
	RunUntil(t float64)
	// ScheduleAt runs fn at simulated time t.
	ScheduleAt(t float64, fn func(now float64)) error
	// ScheduleRepeating runs fn at start, start+interval, start+2·interval, …
	ScheduleRepeating(start, interval float64, fn func(now float64)) error

	// Mode returns the scenario's streaming mode.
	Mode() Mode
	// ChannelConfig returns the per-channel parameters.
	ChannelConfig() queueing.Config
	// Channels returns the number of channels.
	Channels() int

	// SetCloudCapacity sets the cloud-provisioned upload capacity Δ for
	// one chunk's download queue, in bytes/s.
	SetCloudCapacity(channel, chunk int, bytesPerSecond float64) error
	// CloudCapacity returns the cloud capacity currently provisioned to a
	// channel, bytes/s.
	CloudCapacity(channel int) (float64, error)
	// TotalCloudCapacity returns the capacity provisioned across all
	// channels, bytes/s.
	TotalCloudCapacity() float64
	// CloudBytesServed returns the cumulative bytes served from cloud
	// capacity since the start of the run (Fig. 4's "used" curve).
	CloudBytesServed() float64

	// TotalUsers returns the viewer count across all channels.
	TotalUsers() int
	// MeanUplink returns the average upload bandwidth of a channel's
	// current viewers (0 when empty) — the u of Eqn. (5).
	MeanUplink(channel int) (float64, error)

	// Estimator exposes a channel's measurement feed for the controller,
	// which reads it at the end of each interval and then Resets it.
	Estimator(channel int) (Feed, error)
	// SampleQuality measures streaming quality right now: the fraction of
	// viewers with no stall inside the trailing window (Fig. 5's metric).
	SampleQuality() QualitySample
}

// Feed is one channel's per-interval measurement stream: the (Λ, P)
// estimates the controller feeds into the queueing analysis (Sec. V-B).
// The event engine backs it with *viewing.Estimator's integer counts; the
// fluid engine accumulates fractional flows directly.
type Feed interface {
	// ArrivalRate returns the estimated Poisson arrival rate Λ over an
	// interval of the given length in seconds.
	ArrivalRate(intervalSeconds float64) (float64, error)
	// Matrix returns the empirical transfer matrix, with unobserved rows
	// taken from fallback (which must be a valid matrix of the same size).
	// The feed may reuse the matrix's storage: it is valid until the
	// feed's next Matrix or Reset call.
	Matrix(fallback queueing.TransferMatrix) (queueing.TransferMatrix, error)
	// Reset clears the recorded observations, starting a new interval.
	Reset()
}
