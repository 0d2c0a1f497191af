package experiments

import (
	"math"
	"testing"

	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// Cross-validation tolerances for fluid vs event mode on the paper's
// Fig. 4/5 scenarios. These are the documented contract of the fluid
// engine (DESIGN.md "Engine fidelities"): quality within 0.03 absolute,
// provisioned bandwidth within 15% relative, budget-coverage fraction
// within 0.1 absolute. Observed agreement at the default scenario is
// roughly 5× tighter on every metric; the slack absorbs seed-to-seed
// variance of the event engine.
const (
	xvalQualityTol  = 0.03
	xvalReservedTol = 0.15
	xvalCoveredTol  = 0.1
)

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a/b - 1)
}

// fidelityPair returns the default fig4/5/10 scenario under both engine
// fidelities — the shared fixture of every cross-validation test.
func fidelityPair() (event, fluid stack.Spec) {
	event = stack.DefaultSpec(0, 1)
	fluid = event
	fluid.Fidelity = modes.FidelityFluid
	return event, fluid
}

// TestFluidCrossValidatesFig4 pins the fluid engine's provisioning
// behaviour (reserved bandwidth, coverage, and the P2P-vs-client-server
// saving — Fig. 4's claims) against the event engine.
func TestFluidCrossValidatesFig4(t *testing.T) {
	event, fluid := fidelityPair()

	re, err := Fig4(event)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Fig4(fluid)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cs_reserved_mean_mbps", "p2p_reserved_mean_mbps"} {
		if d := relDiff(rf.Summary[key], re.Summary[key]); d > xvalReservedTol {
			t.Errorf("%s: fluid %v vs event %v (%.1f%% off, tol %.0f%%)",
				key, rf.Summary[key], re.Summary[key], d*100, xvalReservedTol*100)
		}
	}
	for _, key := range []string{"cs_covered_fraction", "p2p_covered_fraction"} {
		if d := math.Abs(rf.Summary[key] - re.Summary[key]); d > xvalCoveredTol {
			t.Errorf("%s: fluid %v vs event %v", key, rf.Summary[key], re.Summary[key])
		}
	}
	// The headline claim: P2P provisions far below client-server, and
	// both engines agree on the saving.
	if rf.Summary["p2p_over_cs_reserved"] >= 1 {
		t.Errorf("fluid lost the P2P saving: p2p/cs = %v", rf.Summary["p2p_over_cs_reserved"])
	}
	if d := math.Abs(rf.Summary["p2p_over_cs_reserved"] - re.Summary["p2p_over_cs_reserved"]); d > xvalReservedTol {
		t.Errorf("p2p/cs reserved ratio: fluid %v vs event %v",
			rf.Summary["p2p_over_cs_reserved"], re.Summary["p2p_over_cs_reserved"])
	}
}

// TestFluidCrossValidatesFig5 pins the fluid engine's streaming-quality
// curve (Fig. 5's metric) against the event engine.
func TestFluidCrossValidatesFig5(t *testing.T) {
	event, fluid := fidelityPair()

	re, err := Fig5(event)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Fig5(fluid)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cs_quality_mean", "p2p_quality_mean"} {
		if d := math.Abs(rf.Summary[key] - re.Summary[key]); d > xvalQualityTol {
			t.Errorf("%s: fluid %v vs event %v (Δ %.4f, tol %.2f)",
				key, rf.Summary[key], re.Summary[key], d, xvalQualityTol)
		}
		if rf.Summary[key] < 0.9 {
			t.Errorf("%s: fluid quality %v collapsed below 0.9", key, rf.Summary[key])
		}
	}
}

// TestFluidCostTracksEvent pins the run cost (the Fig. 10 view of the
// same scenarios) across engines: the controller driven by fluid
// estimates must land within the reserved-bandwidth tolerance of the
// event-mode bill.
func TestFluidCostTracksEvent(t *testing.T) {
	event, fluid := fidelityPair()

	re, err := Fig10(event)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Fig10(fluid)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cs_cost_per_hour", "p2p_cost_per_hour"} {
		if d := relDiff(rf.Summary[key], re.Summary[key]); d > xvalReservedTol {
			t.Errorf("%s: fluid %v vs event %v (%.1f%% off)",
				key, rf.Summary[key], re.Summary[key], d*100)
		}
	}
}
