package experiments

import (
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/stack"
)

// TestHedgedLookaheadBeatsGreedyUnderPreemption is the PR 10 acceptance
// pin: under a spot mass-preemption mid-run, the hedged lookahead on the
// spot plan must come in cheaper than greedy on safe on-demand capacity
// at equal-or-better quality (within a small tolerance), on BOTH engine
// fidelities — otherwise the risk discount is not earning its keep.
func TestHedgedLookaheadBeatsGreedyUnderPreemption(t *testing.T) {
	preempt := &fault.Schedule{
		Name:        "preempt@6h",
		Preemptions: []fault.SpotPreemption{{At: 6 * 3600, Fraction: 0.6}},
	}
	for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		base := stack.DefaultSpec(modes.CloudAssisted, 1)
		base.Hours = 8
		base.Fidelity = fid
		base.Faults = preempt

		greedy := base
		greedy.Policy = provision.Greedy{}
		greedy.Pricing = cloud.OnDemandPricing()
		hedged := base
		hedged.Policy = provision.Lookahead{SpotHedge: true}
		hedged.Pricing = cloud.SpotPricing()

		tls, err := RunTimelines(greedy, hedged)
		if err != nil {
			t.Fatalf("fidelity %v: %v", fid, err)
		}
		g, h := tls[0], tls[1]
		if h.Bill.TotalUSD() >= g.Bill.TotalUSD() {
			t.Errorf("fidelity %v: hedged spot bill $%.2f not below greedy on-demand $%.2f",
				fid, h.Bill.TotalUSD(), g.Bill.TotalUSD())
		}
		if h.MeanQuality < g.MeanQuality-0.01 {
			t.Errorf("fidelity %v: hedged quality %.4f gave back too much vs greedy %.4f",
				fid, h.MeanQuality, g.MeanQuality)
		}
		if h.Bill.Interruptions == 0 {
			t.Errorf("fidelity %v: spot run recorded no interruptions — preemption never fired", fid)
		}
		if g.Bill.Interruptions != 0 || g.Bill.SpotUSD != 0 {
			t.Errorf("fidelity %v: on-demand run touched the spot market: %+v", fid, g.Bill)
		}
	}
}

// TestScenarioFaultsValidateAndClone: Build rejects a malformed fault
// schedule, and the fault plumbing survives scenario derivation.
func TestScenarioFaultsValidate(t *testing.T) {
	sc := stack.DefaultSpec(modes.CloudAssisted, 1)
	sc.Hours = 1
	sc.Faults = &fault.Schedule{Preemptions: []fault.SpotPreemption{{At: -5, Fraction: 0.5}}}
	if _, err := RunTimeline(sc); err == nil {
		t.Error("negative preemption time accepted by Build")
	}
}

// TestResilienceSmoke runs the full experiment family at a reduced
// horizon to keep the registry honest: every combo, both fault kinds,
// and the geo-failover leg must produce tables and the summary keys the
// docs promise.
func TestResilienceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience family is a long run")
	}
	sc := stack.DefaultSpec(modes.CloudAssisted, 1)
	sc.Hours = 24
	res, err := Resilience(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables")
	}
	for _, key := range []string{
		"preempt_greedy_ondemand_usd", "preempt_hedged_spot_usd",
		"preempt_hedged_spot_quality", "preempt_hedged_spot_interruptions",
		"degrade_greedy_ondemand_usd",
		"outage_transfer_usd", "outage_total_usd", "outage_mean_region_quality",
	} {
		if _, ok := res.Summary[key]; !ok {
			t.Errorf("summary missing %q (have %v)", key, res.Summary)
		}
	}
	if res.Summary["outage_transfer_usd"] <= 0 {
		t.Error("geo failover leg charged no transfer dollars")
	}
	if res.Summary["preempt_hedged_spot_usd"] >= res.Summary["preempt_greedy_ondemand_usd"] {
		t.Errorf("hedged spot $%.2f not below greedy on-demand $%.2f in the family run",
			res.Summary["preempt_hedged_spot_usd"], res.Summary["preempt_greedy_ondemand_usd"])
	}
}
