package simulate

import (
	"context"

	"cloudmedia/internal/core"
	"cloudmedia/internal/stack"
)

// Snapshot is one periodic measurement of the running system, taken every
// Scenario.SampleSeconds of simulated time and at the end of the run.
type Snapshot = core.Snapshot

// Report summarizes a finished (or cancelled) run.
type Report struct {
	// Mode and Hours echo the scenario; Hours is the simulated time
	// actually covered, which is less than requested if the context was
	// cancelled.
	Mode  Mode
	Hours float64
	// Intervals is the number of provisioning rounds that ran (including
	// the t=0 bootstrap).
	Intervals int
	// VMCostTotal and StorageCostTotal are the run's cloud bill at the
	// catalog's on-demand prices (the paper's literal accounting).
	VMCostTotal      float64
	StorageCostTotal float64
	// Bill is the ledger's view of the same run under the scenario's
	// PricingPlan: VM-hours and dollars split reserved / on-demand /
	// upfront / storage. Under the default on-demand plan Bill.TotalUSD()
	// equals VMCostTotal + StorageCostTotal.
	Bill LedgerTotals
	// MeanQuality averages Snapshot.Quality over the run.
	MeanQuality float64
	// MeanReservedMbps averages the provisioned cloud bandwidth.
	MeanReservedMbps float64
	// FinalUsers is the viewer count when the run ended.
	FinalUsers int
	// Records holds every provisioning round and Snapshots every sample,
	// only when the run was started with KeepHistory; stream via
	// OnInterval/OnSnapshot otherwise.
	Records   []IntervalRecord
	Snapshots []Snapshot
}

// RunOption configures one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	onInterval  []func(IntervalRecord)
	onSnapshot  []func(Snapshot)
	onArrivals  []func(channel int, t, n float64)
	pacer       func(simNow float64)
	keepHistory bool
}

// OnInterval streams every provisioning round to fn as soon as it
// completes. fn runs on the simulation goroutine and must not block
// indefinitely. Multiple OnInterval options all fire, in order.
func OnInterval(fn func(IntervalRecord)) RunOption {
	return func(rc *runConfig) { rc.onInterval = append(rc.onInterval, fn) }
}

// OnSnapshot streams every periodic measurement to fn as it is taken.
// Multiple OnSnapshot options all fire, in order.
func OnSnapshot(fn func(Snapshot)) RunOption {
	return func(rc *runConfig) { rc.onSnapshot = append(rc.onSnapshot, fn) }
}

// OnArrivals observes every realized arrival of the run: the channel,
// the simulated time, and the arrival mass (1 per viewer on the event
// engine, fractional step masses on the fluid engine). Wire a
// trace.Recorder's Add here to capture the run as a replayable trace.
// Calls for one channel are serialized, but different channels may call
// concurrently from the event engine's channel workers — fn must keep
// per-channel state only (trace.Recorder does). Multiple OnArrivals
// options all fire, in order.
func OnArrivals(fn func(channel int, t, n float64)) RunOption {
	return func(rc *runConfig) { rc.onArrivals = append(rc.onArrivals, fn) }
}

// WithPacer installs the engines' pacing hook: fn is called once per
// control barrier with the simulated time the engine is about to advance
// to, before any state moves past the current instant. It runs on the
// simulation goroutine and is meant to sleep (pkg/serve wires a pacing
// clock here); it must not call back into the run. Because the hook only
// delays the engine, a paced run's interval records are identical to the
// same scenario's batch Run. The last WithPacer wins.
func WithPacer(fn func(simNow float64)) RunOption {
	return func(rc *runConfig) { rc.pacer = fn }
}

// KeepHistory retains every IntervalRecord and Snapshot in the Report.
// Memory grows with the run length; prefer the streaming callbacks for
// long simulations.
func KeepHistory() RunOption {
	return func(rc *runConfig) { rc.keepHistory = true }
}

// Run builds the system, applies bootstrap provisioning from the analytic
// t=0 estimates, and advances the simulation for Scenario.Hours of
// simulated time. The run stops at every sample, at every whole simulated
// hour and at its end; a sampling period that divides the hour stops only
// on its own grid. The bill is priced from the allocation when read, so
// the stops do not move it. The context is checked between stops; on cancellation Run
// returns the context error together with a report covering the time
// simulated so far.
func (sc Scenario) Run(ctx context.Context, opts ...RunOption) (*Report, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}

	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Mode: sc.Mode}
	esc := stack.Scenario{Spec: sc.Spec, Pacer: rc.pacer}
	if len(rc.onArrivals) > 0 {
		fns := rc.onArrivals
		esc.OnArrivals = func(channel int, t, n float64) {
			for _, fn := range fns {
				fn(channel, t, n)
			}
		}
	}
	esc.OnInterval = func(rec IntervalRecord) {
		rep.Intervals++
		for _, fn := range rc.onInterval {
			fn(rec)
		}
		if rc.keepHistory {
			rep.Records = append(rep.Records, rec)
		}
	}

	sys, err := stack.Build(esc, stack.RegionID{})
	if err != nil {
		return nil, err
	}

	var qualitySum, reservedSum float64
	samples := 0
	runErr := stack.Run(ctx, []*stack.System{sys}, nil, func(stop stack.Stop) {
		if !stop.Sample {
			return
		}
		vmCost, storageCost := sys.Cloud.Costs(stop.Time)
		q := sys.Sim.SampleQuality()
		snap := Snapshot{
			Time:              stop.Time,
			Quality:           q.Overall,
			PerChannelQuality: q.PerChannel,
			Users:             sys.Sim.TotalUsers(),
			PerChannelUsers:   q.UsersPerChannel,
			ReservedMbps:      sys.Sim.TotalCloudCapacity() * 8 / 1e6,
			CloudServedGB:     sys.Sim.CloudBytesServed() / 1e9,
			VMCost:            vmCost,
			StorageCost:       storageCost,
		}
		qualitySum += snap.Quality
		reservedSum += snap.ReservedMbps
		samples++
		for _, fn := range rc.onSnapshot {
			fn(snap)
		}
		if rc.keepHistory {
			rep.Snapshots = append(rep.Snapshots, snap)
		}
	})

	now := sys.Sim.Now()
	rep.Hours = now / 3600
	rep.VMCostTotal, rep.StorageCostTotal = sys.Cloud.Costs(now)
	rep.Bill = sys.Cloud.Bill(now)
	rep.FinalUsers = sys.Sim.TotalUsers()
	if samples > 0 {
		rep.MeanQuality = qualitySum / float64(samples)
		rep.MeanReservedMbps = reservedSum / float64(samples)
	}
	return rep, runErr
}

// Stream runs the scenario on a background goroutine and delivers every
// provisioning round on the returned channel, which closes when the run
// finishes or the context is cancelled. The returned wait function blocks
// until completion and yields the final report; it must be called to
// collect the run's outcome. Calling wait stops consuming from records
// yourself: it drains any undelivered rounds so a consumer that exits its
// receive loop early cannot deadlock the run.
func (sc Scenario) Stream(ctx context.Context, opts ...RunOption) (<-chan IntervalRecord, func() (*Report, error)) {
	records := make(chan IntervalRecord)
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer close(records)
		opts = append(opts, OnInterval(func(rec IntervalRecord) {
			select {
			case records <- rec:
			case <-ctx.Done():
			}
		}))
		rep, err := sc.Run(ctx, opts...)
		done <- outcome{rep, err}
	}()
	return records, func() (*Report, error) {
		go func() {
			for range records {
			}
		}()
		out := <-done
		return out.rep, out.err
	}
}
