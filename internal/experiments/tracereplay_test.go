package experiments

import (
	"math"
	"testing"

	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/trace"
)

// TestTraceReplayReproducesAggregates is the record→replay contract: a
// trace recorded from a fig4-style event-engine run and replayed through
// both engine fidelities must reproduce the run's aggregate quality,
// provisioned bandwidth, and cost within the DESIGN.md "Engine
// fidelities" tolerances (the same constants the fluid cross-validation
// tests pin). The replay runs on a different seed, so agreement means
// the recovered intensity is right — not that the dice were re-rolled.
func TestTraceReplayReproducesAggregates(t *testing.T) {
	sc := stack.DefaultSpec(modes.ClientServer, 1)
	res, err := TraceReplay(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary

	for _, engine := range []string{"event", "fluid"} {
		if d := math.Abs(s["replay_"+engine+"_quality"] - s["recorded_quality"]); d > xvalQualityTol {
			t.Errorf("%s replay quality %v vs recorded %v (Δ %.4f, tol %.2f)",
				engine, s["replay_"+engine+"_quality"], s["recorded_quality"], d, xvalQualityTol)
		}
		if d := relDiff(s["replay_"+engine+"_reserved_mbps"], s["recorded_reserved_mbps"]); d > xvalReservedTol {
			t.Errorf("%s replay reserved %v Mbps vs recorded %v (%.1f%% off, tol %.0f%%)",
				engine, s["replay_"+engine+"_reserved_mbps"], s["recorded_reserved_mbps"], d*100, xvalReservedTol*100)
		}
		if d := relDiff(s["replay_"+engine+"_vm_cost_usd"], s["recorded_vm_cost_usd"]); d > xvalReservedTol {
			t.Errorf("%s replay VM cost $%v vs recorded $%v (%.1f%% off, tol %.0f%%)",
				engine, s["replay_"+engine+"_vm_cost_usd"], s["recorded_vm_cost_usd"], d*100, xvalReservedTol*100)
		}
	}
	if s["recorded_quality"] < 0.9 {
		t.Errorf("recording run quality collapsed: %v", s["recorded_quality"])
	}
	if s["trace_channels"] != float64(sc.Workload.Channels) {
		t.Errorf("recorded trace has %v channels, want %d", s["trace_channels"], sc.Workload.Channels)
	}
}

// TestTraceSourceDrivesBothEngines pins the seam mechanics end to end on
// a hand-built trace: the channel count follows the source, both engines
// accept it, and a channel whose trace is silent stays empty while a
// loaded channel fills — under event and fluid fidelity alike.
func TestTraceSourceDrivesBothEngines(t *testing.T) {
	tr := &trace.Trace{
		Times: []float64{0, 1800, 3600},
		Rates: [][]float64{
			{0.2, 0.4, 0.2}, // busy channel
			{0, 0, 0},       // silent channel
		},
	}
	for _, fidelity := range []struct {
		name string
		f    modes.Fidelity
	}{{"event", modes.FidelityEvent}, {"fluid", modes.FidelityFluid}} {
		sc := stack.DefaultSpec(modes.ClientServer, 1)
		sc.Hours = 1
		sc.Fidelity = fidelity.f
		sc.Source = tr
		sys, err := stack.Build(stack.Scenario{Spec: sc}, stack.RegionID{})
		if err != nil {
			t.Fatalf("%s: %v", fidelity.name, err)
		}
		if got := sys.Sim.Channels(); got != 2 {
			t.Fatalf("%s: engine has %d channels, want 2 (from the trace)", fidelity.name, got)
		}
		sys.Sim.RunUntil(3600)
		users := sys.Sim.SampleQuality().UsersPerChannel
		busy, silent := users[0], users[1]
		if busy == 0 {
			t.Errorf("%s: busy trace channel stayed empty", fidelity.name)
		}
		if silent != 0 {
			t.Errorf("%s: silent trace channel has %d viewers", fidelity.name, silent)
		}
	}
}

// TestTraceReplayHonoursScenarioSource pins the review fix: a scenario
// that already carries a demand source (the CLI's -trace) is recorded
// as-is — the experiment must not silently fall back to the parametric
// workload.
func TestTraceReplayHonoursScenarioSource(t *testing.T) {
	custom := &trace.Trace{
		Times: []float64{0, 3600, 7200},
		Rates: [][]float64{{0.3, 0.5, 0.3}, {0.1, 0.2, 0.1}, {0.05, 0.05, 0.05}},
	}
	sc := stack.DefaultSpec(modes.ClientServer, 1)
	sc.Hours = 2
	sc.Source = custom
	res, err := TraceReplay(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The recording must reflect the custom trace's 3 channels, not the
	// default parametric workload's 6.
	if got := res.Summary["trace_channels"]; got != 3 {
		t.Errorf("recorded %v channels, want the supplied trace's 3", got)
	}
}
