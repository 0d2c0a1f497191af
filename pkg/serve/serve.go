// Package serve runs a simulation scenario as a live, wall-clock-paced
// service: the same engines and control loop as a batch simulate.Run,
// held back at every control barrier by a pacing clock, observed through
// a rolling metric store, and exposed over HTTP (/metrics in the
// Prometheus text format with a live cost ticker, /healthz, /state).
//
// Because the pacing hook only delays the engines — it never changes
// what they compute — a paced run's interval records are identical to
// the same scenario's batch Run, at any time scale. Under the simulated
// clock the run IS the batch run plus observability, which is how the
// tests pin that guarantee.
//
//	sc, _ := cloudmedia.NewScenario(cloudmedia.CloudAssisted,
//		cloudmedia.WithHours(24),
//		cloudmedia.WithTimeScale(24),       // replay the day in an hour
//		cloudmedia.WithMetricsAddr(":9090"),
//	)
//	report, err := serve.Run(ctx, sc)
//
// Cancel the context (the CLI wires SIGINT) for a graceful drain: the
// run stops at the next control barrier, the HTTP endpoint shuts down
// cleanly, and the returned report covers the time actually served.
package serve

import (
	"context"
	"net"
	"time"

	iserve "cloudmedia/internal/serve"
	"cloudmedia/internal/stack"
	"cloudmedia/pkg/simulate"
)

// LiveSource is the streaming arrival ingress: a workload source fed
// incrementally — by Ingest calls or by the trace-CSV line protocol via
// Feed — while the run is in flight. Wire one into a scenario with
// cloudmedia.WithWorkloadSource.
type LiveSource = iserve.LiveSource

// NewLiveSource builds an empty live source for the given channel count.
// maxRate is the per-channel ceiling used as the arrival-thinning
// envelope; ingested rates above it are clamped.
func NewLiveSource(channels int, maxRate float64) (*LiveSource, error) {
	return iserve.NewLiveSource(channels, maxRate)
}

// State is the /state JSON document: the latest value of everything the
// metric store tracks.
type State = iserve.State

// Bin is one aggregated timeline entry of the rolling metric store.
type Bin = iserve.Bin

// Report is a finished live run: the batch report plus the pacing
// outcome and the aggregated timeline.
type Report struct {
	*simulate.Report
	// RealSeconds is the wall-clock duration of the paced run.
	RealSeconds float64
	// AchievedTimeScale is simulated/real seconds actually realized —
	// close to the configured scale when the engines kept up, lower when
	// an interval's compute outran its real-time allowance.
	AchievedTimeScale float64
	// Timeline is the run's aggregated metric history (full run coverage
	// at fixed resolution).
	Timeline []Bin
	// Addr is the observability endpoint's listen address, empty when no
	// endpoint was configured.
	Addr string
}

// Option configures one Run call.
type Option func(*options)

type options struct {
	listener net.Listener
	runOpts  []simulate.RunOption
}

// WithListener serves the observability endpoint on an existing listener
// instead of the scenario's MetricsAddr — tests pass a ":0" listener and
// read the port back from Report.Addr.
func WithListener(ln net.Listener) Option {
	return func(o *options) { o.listener = ln }
}

// WithRunOptions forwards extra options to the underlying scenario Run —
// additional OnInterval/OnSnapshot observers, KeepHistory, OnArrivals.
// They are applied after the serve instrumentation, so a WithPacer here
// would replace the pacing clock; don't pass one.
func WithRunOptions(opts ...simulate.RunOption) Option {
	return func(o *options) { o.runOpts = append(o.runOpts, opts...) }
}

// Run executes the scenario paced against its configured clock
// (Scenario.Serve; unset defaults to the real clock at time scale 1) and
// serves live metrics while it is in flight. The context governs the
// whole run: cancellation drains gracefully and returns the partial
// report with the context's error, exactly like simulate.Run.
func Run(ctx context.Context, sc simulate.Scenario, opts ...Option) (*Report, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// The metrics need the resolved interval and sampling period, and
	// the timing wrapper a policy to wrap; the run resolves the same.
	sc.Spec = stack.Resolve(sc.Spec)

	mode := sc.Serve.Clock
	if mode == 0 {
		mode = simulate.ClockReal
	}
	timeScale := sc.Serve.TimeScale
	if timeScale == 0 {
		timeScale = 1
	}
	clock, err := iserve.NewClock(mode, timeScale)
	if err != nil {
		return nil, err
	}

	metrics := iserve.NewMetrics()
	// Publish the static run facts before the endpoint starts serving: a
	// scrape may land before the first control barrier.
	metrics.ObserveRun(timeScale, sc.Spec)
	rolling, err := iserve.NewRolling(sc.SampleSeconds)
	if err != nil {
		return nil, err
	}

	// Time every policy Plan call.
	sc.Policy = iserve.TimedPolicy(sc.Policy, metrics.ObservePlanLatency)

	var srv *iserve.HTTPServer
	switch {
	case o.listener != nil:
		srv = iserve.NewHTTPServer(o.listener, iserve.NewHandler(metrics, rolling))
	case sc.Serve.MetricsAddr != "":
		srv, err = iserve.ListenHTTP(sc.Serve.MetricsAddr, iserve.NewHandler(metrics, rolling))
		if err != nil {
			return nil, err
		}
	}
	addr := ""
	if srv != nil {
		srv.Start()
		addr = srv.Addr()
	}

	clock.Start()
	pacer := func(simNow float64) {
		// A cancelled wait falls through: the engine then advances to its
		// next context check in the Run loop and exits there, so the drain
		// stays on the batch path.
		_ = clock.WaitUntil(ctx, simNow)
		metrics.ObserveClock(simNow, clock.RealElapsed(), timeScale)
	}

	runOpts := append([]simulate.RunOption{
		simulate.WithPacer(pacer),
		simulate.OnInterval(metrics.ObserveInterval),
		simulate.OnSnapshot(func(s simulate.Snapshot) { rolling.Add(metrics.ObserveSnapshot(s)) }),
	}, o.runOpts...)
	rep, runErr := sc.Run(ctx, runOpts...)

	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	if rep == nil {
		return nil, runErr
	}

	out := &Report{
		Report:      rep,
		RealSeconds: clock.RealElapsed(),
		Timeline:    rolling.Timeline(),
		Addr:        addr,
	}
	if out.RealSeconds > 0 {
		out.AchievedTimeScale = rep.Hours * 3600 / out.RealSeconds
	}
	return out, runErr
}
