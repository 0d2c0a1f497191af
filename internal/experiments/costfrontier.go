package experiments

import (
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/stack"
)

// frontierPolicies are the four provisioning policies the frontier
// compares, in presentation order.
func frontierPolicies() []provision.Policy {
	return []provision.Policy{
		provision.Greedy{},
		provision.Lookahead{},
		provision.Oracle{},
		provision.StaticPeak{},
	}
}

// CostFrontier maps the cost-vs-quality frontier of the provisioning
// policies: every policy × both pricing plans × both engine fidelities on
// the scenario's architecture, each run reporting its mean streaming
// quality against the run's cumulative ledger bill split by tier. Greedy
// is the paper's heuristic; Oracle bounds what perfect prediction could
// save; StaticPeak is what a provider without elastic provisioning would
// pay; Lookahead sits in between. The second table breaks the
// reserved-plan bill down per interval, the Fig. 10 view with
// reserved/on-demand/storage dollars separated.
func CostFrontier(sc stack.Spec) (*Result, error) {
	sc = pinMode(sc, sc.Mode)
	policies := frontierPolicies()
	pricings := []cloud.PricingPlan{cloud.OnDemandPricing(), cloud.ReservedPricing()}
	fidelities := []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid}

	type combo struct {
		policy   provision.Policy
		pricing  cloud.PricingPlan
		fidelity modes.Fidelity
	}
	var combos []combo
	var family []stack.Spec
	for _, fid := range fidelities {
		for _, pricing := range pricings {
			for _, policy := range policies {
				run := sc
				run.Fidelity = fid
				run.Pricing = pricing
				run.Policy = policy
				combos = append(combos, combo{policy, pricing, fid})
				family = append(family, run)
			}
		}
	}
	runs, err := RunTimelines(family...)
	if err != nil {
		return nil, fmt.Errorf("costfrontier: %w", err)
	}

	frontier := metrics.NewTable(
		fmt.Sprintf("Cost-vs-quality frontier — policies × pricing plans (%v)", sc.Mode),
		"policy", "pricing", "fidelity", "mean_quality",
		"reserved_usd", "on_demand_usd", "upfront_usd", "storage_usd", "total_usd")
	summary := make(map[string]float64)
	for i, c := range combos {
		tl := runs[i]
		b := tl.Bill
		frontier.AddRow(c.policy.Name(), c.pricing.DisplayName(), c.fidelity.String(), tl.MeanQuality,
			b.ReservedUSD, b.OnDemandUSD, b.UpfrontUSD, b.StorageUSD, b.TotalUSD())
		if c.fidelity == modes.FidelityEvent {
			key := c.policy.Name() + "_" + c.pricing.DisplayName()
			summary[key+"_usd"] = b.TotalUSD()
			if c.pricing.Name == "on-demand" {
				summary[c.policy.Name()+"_quality"] = tl.MeanQuality
			}
		}
	}

	// Per-interval dollar breakdown under the reserved plan, event
	// fidelity: the reserved tier is flat, the on-demand tier follows the
	// diurnal pattern, and the policies differ in how much of it they rent.
	breakdown := metrics.NewTable(
		"Per-interval cost breakdown — reserved pricing, event fidelity ($)",
		"hour", "policy", "reserved_usd", "on_demand_usd", "upfront_usd", "storage_usd", "cumulative_usd")
	for i, c := range combos {
		if c.fidelity != modes.FidelityEvent || c.pricing.Name != "reserved" {
			continue
		}
		var cum float64
		for _, rec := range runs[i].Records {
			cum += rec.Cost.TotalUSD()
			breakdown.AddRow(rec.Time/3600, c.policy.Name(),
				rec.Cost.ReservedUSD, rec.Cost.OnDemandUSD, rec.Cost.UpfrontUSD, rec.Cost.StorageUSD, cum)
		}
	}

	return &Result{
		ID:      "costfrontier",
		Tables:  []*metrics.Table{frontier, breakdown},
		Summary: summary,
	}, nil
}
