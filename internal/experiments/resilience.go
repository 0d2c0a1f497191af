package experiments

import (
	"context"
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/geo"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/stack"
)

// resilienceCombos are the policy × pricing pairings the experiment
// compares, in presentation order: the paper's greedy on the safe plan,
// greedy naively taking the spot discount, the hedged lookahead that
// prices the interruption risk into its targets, and the
// perfect-prediction bound.
func resilienceCombos() []struct {
	key     string
	policy  provision.Policy
	pricing cloud.PricingPlan
} {
	return []struct {
		key     string
		policy  provision.Policy
		pricing cloud.PricingPlan
	}{
		{"greedy_ondemand", provision.Greedy{}, cloud.OnDemandPricing()},
		{"greedy_spot", provision.Greedy{}, cloud.SpotPricing()},
		{"hedged_spot", provision.Lookahead{SpotHedge: true}, cloud.SpotPricing()},
		{"oracle_ondemand", provision.Oracle{}, cloud.OnDemandPricing()},
	}
}

// Resilience compares provisioning policies under adversity: every combo
// of resilienceCombos × two single-region fault kinds (the spot
// mass-preemption and the evening brownout, both inside the flash crowd)
// × both engine fidelities, plus a multi-region outage realized as geo
// failover. The question the table answers: does the hedged lookahead
// keep the spot discount's savings without giving the quality back when
// the provider mass-preempts — against greedy-on-demand (safe, dear),
// greedy-on-spot (cheap, fragile), and the oracle bound.
func Resilience(sc stack.Spec) (*Result, error) {
	sc = pinMode(sc, sc.Mode)
	presets := fault.Presets()
	faults := []struct {
		key   string
		sched *fault.Schedule
	}{
		{"preempt", presets["preempt-peak"]},
		{"degrade", presets["degrade-evening"]},
	}
	fidelities := []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid}
	combos := resilienceCombos()

	type run struct {
		fault, combo string
		fidelity     modes.Fidelity
	}
	var meta []run
	var family []stack.Spec
	for _, fid := range fidelities {
		for _, f := range faults {
			for _, c := range combos {
				r := sc
				r.Fidelity = fid
				r.Policy = c.policy
				r.Pricing = c.pricing
				r.Faults = f.sched
				meta = append(meta, run{f.key, c.key, fid})
				family = append(family, r)
			}
		}
	}
	runs, err := RunTimelines(family...)
	if err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("Resilience — policies × pricing under faults (%v)", sc.Mode),
		"fault", "policy_pricing", "fidelity", "mean_quality",
		"spot_usd", "on_demand_usd", "interruptions", "total_usd")
	summary := make(map[string]float64)
	for i, m := range meta {
		tl := runs[i]
		b := tl.Bill
		tbl.AddRow(m.fault, m.combo, m.fidelity.String(), tl.MeanQuality,
			b.SpotUSD, b.OnDemandUSD, b.Interruptions, b.TotalUSD())
		if m.fidelity == modes.FidelityEvent {
			summary[m.fault+"_"+m.combo+"_usd"] = b.TotalUSD()
			summary[m.fault+"_"+m.combo+"_quality"] = tl.MeanQuality
			summary[m.fault+"_"+m.combo+"_interruptions"] = float64(b.Interruptions)
		}
	}

	// The outage leg: a three-region deployment losing its largest region
	// mid-flash-crowd, arrivals failing over to the survivors and back.
	geoTbl, err := resilienceOutage(sc, presets["outage-flash"], summary)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:      "resilience",
		Tables:  []*metrics.Table{tbl, geoTbl},
		Summary: summary,
	}, nil
}

// resilienceOutage runs the outage-flash schedule through the geo
// deployment on both fidelities and reports the per-region outcome:
// migrated arrival shares, failover transfer dollars, and the quality
// cost of serving a failed region's crowd from the survivors.
func resilienceOutage(sc stack.Spec, sched *fault.Schedule, summary map[string]float64) (*metrics.Table, error) {
	// The outage leg bills at the zero-value (on-demand) plan whatever
	// the family's pricing, and its regions derive demand from the
	// parametric workload.
	sc.Pricing = cloud.PricingPlan{}
	sc.Source = nil
	sc.Faults = sched
	tbl := metrics.NewTable(
		"Resilience — region outage with cross-region failover",
		"fidelity", "region", "users", "quality", "transfer_usd", "total_usd")
	for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		sc.Fidelity = fid
		dep, err := geo.New(sc, geo.DefaultRegions())
		if err != nil {
			return nil, fmt.Errorf("resilience outage: %w", err)
		}
		if err := dep.Run(context.Background(), nil, func(stack.Stop) {}); err != nil {
			return nil, fmt.Errorf("resilience outage: %w", err)
		}
		regions, totalVM, totalStorage := dep.Report()
		var transferUSD, qualitySum float64
		for _, r := range regions {
			tbl.AddRow(fid.String(), r.Name, r.Users, r.Quality, r.Bill.TransferUSD, r.Bill.TotalUSD())
			transferUSD += r.Bill.TransferUSD
			qualitySum += r.Quality
		}
		if fid == modes.FidelityEvent {
			summary["outage_transfer_usd"] = transferUSD
			summary["outage_total_usd"] = totalVM + totalStorage + transferUSD
			summary["outage_mean_region_quality"] = qualitySum / float64(len(regions))
		}
	}
	return tbl, nil
}
