package experiments

import (
	"fmt"

	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/trace"
)

// TraceReplay demonstrates the record→replay loop the demand-source seam
// unlocks: it runs the scenario on the per-viewer event engine while a
// trace.Recorder bins the realized arrivals, then replays the recovered
// trace through both engine fidelities and compares the aggregates. The
// replayed runs must reproduce the recorded quality, provisioned
// bandwidth, and cost within the DESIGN.md "Engine fidelities"
// tolerances — the cross-validation contract, now checkable against any
// recorded workload rather than only the parametric one.
func TraceReplay(sc stack.Spec) (*Result, error) {
	base := sc
	base.Fidelity = modes.FidelityEvent // record on the per-viewer reference engine

	// The recording run keeps the scenario's own demand — the parametric
	// workload, or whatever source -trace installed — so the experiment
	// validates the loop on the demand the caller actually asked about.
	channels := base.Workload.Channels
	if base.Source != nil {
		channels = base.Source.NumChannels()
	}
	rec, err := trace.NewRecorder(channels, base.SampleSeconds)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}
	recorded, err := runTimeline(stack.Scenario{Spec: base, OnArrivals: rec.Add})
	if err != nil {
		return nil, fmt.Errorf("tracereplay: recording run: %w", err)
	}
	tr, err := rec.Trace(base.Hours * 3600)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: %w", err)
	}

	replayEvent := sc
	replayEvent.Fidelity = modes.FidelityEvent
	replayEvent.Source = tr
	// A different seed decorrelates the replay's Poisson thinning from
	// the recording's: the replay must reproduce the aggregates because
	// the recovered intensity is right, not because it re-rolls the same
	// dice.
	replayEvent.Seed = sc.Seed + 1
	replayFluid := replayEvent
	replayFluid.Fidelity = modes.FidelityFluid
	tls, err := RunTimelines(replayEvent, replayFluid)
	if err != nil {
		return nil, fmt.Errorf("tracereplay: replay runs: %w", err)
	}
	event, fluid := tls[0], tls[1]

	tbl := metrics.NewTable("Trace record → replay — aggregates across engines",
		"metric", "recorded", "replay_event", "replay_fluid")
	tbl.AddRow("quality_mean", recorded.MeanQuality, event.MeanQuality, fluid.MeanQuality)
	tbl.AddRow("reserved_mean_mbps", recorded.MeanReservedMbps(), event.MeanReservedMbps(), fluid.MeanReservedMbps())
	tbl.AddRow("covered_fraction", recorded.ReservedCoversUsedFraction(), event.ReservedCoversUsedFraction(), fluid.ReservedCoversUsedFraction())
	tbl.AddRow("vm_cost_usd", recorded.VMCostTotal, event.VMCostTotal, fluid.VMCostTotal)

	return &Result{
		ID:     "tracereplay",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"recorded_quality":           recorded.MeanQuality,
			"replay_event_quality":       event.MeanQuality,
			"replay_fluid_quality":       fluid.MeanQuality,
			"recorded_reserved_mbps":     recorded.MeanReservedMbps(),
			"replay_event_reserved_mbps": event.MeanReservedMbps(),
			"replay_fluid_reserved_mbps": fluid.MeanReservedMbps(),
			"recorded_vm_cost_usd":       recorded.VMCostTotal,
			"replay_event_vm_cost_usd":   event.VMCostTotal,
			"replay_fluid_vm_cost_usd":   fluid.VMCostTotal,
			"trace_samples":              float64(len(tr.Times)),
			"trace_channels":             float64(tr.NumChannels()),
		},
	}, nil
}
