package experiments

import (
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/stack"
)

// quickScenario keeps experiment tests fast: 3 simulated hours at small
// scale with 20-minute provisioning rounds.
func quickScenario(mode modes.Mode) stack.Spec {
	sc := stack.DefaultSpec(mode, 2)
	sc.Hours = 3
	sc.IntervalSeconds = 1200
	sc.SampleSeconds = 600
	return sc
}

func TestDefaultScenarioShape(t *testing.T) {
	sc := stack.DefaultSpec(modes.ClientServer, 1)
	// 6 channels is the documented laptop-scale reduction of the paper's 20
	// (see the DefaultSpec doc comment and EXPERIMENTS.md).
	if sc.Workload.Channels != 6 {
		t.Errorf("channels = %d, want 6", sc.Workload.Channels)
	}
	if sc.VMBudget != 100 || sc.StorageBudget != 1 {
		t.Errorf("budgets = %v/%v, want paper's 100/1", sc.VMBudget, sc.StorageBudget)
	}
	if sc.Channel.VMBandwidth/sc.Channel.PlaybackRate != 25 {
		t.Errorf("R/r = %v, want the paper's 25", sc.Channel.VMBandwidth/sc.Channel.PlaybackRate)
	}
	// Negative scale falls back to 1.
	neg := stack.DefaultSpec(modes.CloudAssisted, -3)
	if neg.Workload.BaseArrivalRate != stack.DefaultSpec(modes.CloudAssisted, 1).Workload.BaseArrivalRate {
		t.Error("non-positive scale should default to 1")
	}
}

func TestBuildValidation(t *testing.T) {
	sc := quickScenario(modes.ClientServer)
	sc.Hours = 0
	if _, err := stack.Build(stack.Scenario{Spec: sc}, stack.RegionID{}); err == nil {
		t.Error("zero hours: want error")
	}
}

func TestRunTimelineProducesMeasurements(t *testing.T) {
	tl, err := RunTimeline(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("RunTimeline: %v", err)
	}
	if len(tl.Snapshots) == 0 || len(tl.Hourlies) == 0 || len(tl.Records) == 0 {
		t.Fatalf("missing measurements: %d snapshots, %d hourlies, %d records",
			len(tl.Snapshots), len(tl.Hourlies), len(tl.Records))
	}
	if tl.VMCostTotal <= 0 {
		t.Error("no VM cost accrued")
	}
	if tl.MeanQuality <= 0 || tl.MeanQuality > 1 {
		t.Errorf("quality %v outside (0,1]", tl.MeanQuality)
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	// Provisioned covers used in the majority of hours, both modes.
	if res.Summary["cs_covered_fraction"] < 0.5 {
		t.Errorf("C/S covered fraction %v", res.Summary["cs_covered_fraction"])
	}
	if res.Summary["p2p_covered_fraction"] < 0.5 {
		t.Errorf("P2P covered fraction %v", res.Summary["p2p_covered_fraction"])
	}
	// P2P reserves less cloud bandwidth than client-server.
	if r := res.Summary["p2p_over_cs_reserved"]; r >= 1 {
		t.Errorf("p2p/cs reserved ratio %v, want < 1", r)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) == 0 {
		t.Error("fig4 table empty")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	cs := res.Summary["cs_quality_mean"]
	pp := res.Summary["p2p_quality_mean"]
	if cs < 0.7 || pp < 0.6 {
		t.Errorf("qualities cs=%v p2p=%v too low for a provisioned system", cs, pp)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(res.Tables[0].Rows) == 0 {
		t.Fatal("no scatter points")
	}
	// Quality good regardless of channel size: both buckets healthy.
	if res.Summary["large_channel_quality"] < 0.6 {
		t.Errorf("large-channel quality %v", res.Summary["large_channel_quality"])
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	cs := res.Summary["cs_mbps_per_user"]
	pp := res.Summary["p2p_mbps_per_user"]
	if cs <= 0 {
		t.Fatalf("cs slope %v", cs)
	}
	if pp >= cs {
		t.Errorf("P2P slope %v not below C/S slope %v (P2P should scale better)", pp, cs)
	}
}

func TestFig8And9Shape(t *testing.T) {
	res8, err := Fig8(quickScenario(modes.CloudAssisted))
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	res9, err := Fig9(quickScenario(modes.CloudAssisted))
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	// The most popular channel earns at least as much utility as the tail.
	if res8.Summary["channel_0_mean_utility"] < res8.Summary["channel_5_mean_utility"] {
		t.Errorf("storage utility not ordered by popularity: %v", res8.Summary)
	}
	if res9.Summary["channel_0_mean_utility"] < res9.Summary["channel_5_mean_utility"] {
		t.Errorf("VM utility not ordered by popularity: %v", res9.Summary)
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(quickScenario(modes.ClientServer))
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	cs := res.Summary["cs_cost_per_hour"]
	pp := res.Summary["p2p_cost_per_hour"]
	if cs <= 0 {
		t.Fatal("no client-server cost")
	}
	if pp >= cs {
		t.Errorf("P2P cost %v not below C/S %v", pp, cs)
	}
	if res.Summary["storage_cost_per_day"] > cs {
		t.Error("storage cost should be negligible next to VM rental")
	}
}

func TestFig11Shape(t *testing.T) {
	sc := quickScenario(modes.CloudAssisted)
	res, err := Fig11(sc)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	for _, key := range []string{"quality_ratio_0.9", "quality_ratio_1.0", "quality_ratio_1.2"} {
		q, ok := res.Summary[key]
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if q < 0.6 {
			t.Errorf("%s = %v: provisioning should absorb uplink shortfall", key, q)
		}
	}
}

func TestTable2Table3(t *testing.T) {
	res2, err := Table2(stack.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tables[0].Rows) != 3 {
		t.Errorf("Table II rows = %d", len(res2.Tables[0].Rows))
	}
	res3, err := Table3(stack.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Tables[0].Rows) != 2 {
		t.Errorf("Table III rows = %d", len(res3.Tables[0].Rows))
	}
}

func TestVMLatency(t *testing.T) {
	res, err := VMLatency(stack.Spec{})
	if err != nil {
		t.Fatalf("VMLatency: %v", err)
	}
	// The bootstrap batch serves exactly one boot latency after it is
	// rented: 25 s, the Sec. VI-C measurement.
	if boot := res.Summary["boot_seconds"]; boot != cloud.DefaultBootSeconds {
		t.Errorf("boot latency %v s, want %v (Sec. VI-C)", boot, cloud.DefaultBootSeconds)
	}
}

func TestStorageCostMatchesPaperBallpark(t *testing.T) {
	res, err := StorageCost(stack.DefaultSpec(modes.CloudAssisted, 1))
	if err != nil {
		t.Fatalf("StorageCost: %v", err)
	}
	perDay := res.Summary["cost_per_day_usd"]
	if perDay < 0.005 || perDay > 0.05 {
		t.Errorf("storage cost $%.4f/day outside the paper's ≈$0.018 ballpark", perDay)
	}
}

func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 17 {
		t.Errorf("registry has %d experiments, want 17", len(seen))
	}
}

func TestRepresentativeChannels(t *testing.T) {
	got := representativeChannels(20)
	if len(got) != 4 || got[0] != 0 || got[3] != 19 {
		t.Errorf("representativeChannels(20) = %v", got)
	}
	if got := representativeChannels(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("representativeChannels(1) = %v", got)
	}
}

func TestResultTablesRender(t *testing.T) {
	res, err := Table2(stack.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Tables[0].Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(sb.String(), "standard") {
		t.Error("render missing cluster names")
	}
}

func TestRicherPeersReduceCloudSpend(t *testing.T) {
	// The effect the paper calls "quite intuitive" and omits from Fig. 11:
	// cloud provisioning falls as peer uplink rises.
	spend := func(ratio float64) float64 {
		sc := quickScenario(modes.CloudAssisted)
		sc.UplinkRatio = ratio
		tl, err := RunTimeline(sc)
		if err != nil {
			t.Fatalf("RunTimeline(%v): %v", ratio, err)
		}
		return tl.VMCostTotal
	}
	poor := spend(0.5)
	rich := spend(1.5)
	if rich >= poor {
		t.Errorf("cloud spend with rich peers (%v) not below poor peers (%v)", rich, poor)
	}
}

func TestSchedulingPolicyFlowsThroughScenario(t *testing.T) {
	sc := quickScenario(modes.CloudAssisted)
	sc.Scheduling = sim.Proportional
	tl, err := RunTimeline(sc)
	if err != nil {
		t.Fatalf("RunTimeline(proportional): %v", err)
	}
	if tl.MeanQuality < 0.6 {
		t.Errorf("proportional scheduling quality %v", tl.MeanQuality)
	}
}

func TestPredictorFlowsThroughScenario(t *testing.T) {
	sc := quickScenario(modes.ClientServer)
	sc.Predictor = core.PeakOfWindow{Window: 2}
	tl, err := RunTimeline(sc)
	if err != nil {
		t.Fatalf("RunTimeline(peak): %v", err)
	}
	if len(tl.Records) == 0 {
		t.Fatal("no provisioning records")
	}
}
