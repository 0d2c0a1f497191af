package experiments

import (
	"context"
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/geo"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/stack"
)

// Regional runs the multi-region deployment the paper lists as ongoing
// work ("expanding to cloud systems spanning different geographic
// locations"): the scenario's crowd is split across geo.DefaultRegions,
// each region running its own overlay (the scenario's mode — P2P
// overlays with cloud compensation, or pure client-server) and its own
// provisioning controller against its own broker, with regional uplink
// heterogeneity feeding the per-region workload (broadband-rich regions
// need less cloud compensation than mobile-heavy ones for the same
// budget). The scenario's fidelity selects the per-region engine, so
// million-viewer regional deployments run on the fluid engine. Every
// region is built from the scenario itself, so its predictor, policy,
// pricing, scheduling and catalogs reach each region. Provisioning is
// always dynamic: geo controllers run every interval, so p2p runs
// cloud-assisted.
func Regional(sc stack.Spec) (*Result, error) { return regional(sc, nil) }

// regional is Regional with extra stops at marks, which must move no
// number of the result.
func regional(sc stack.Spec, marks []float64) (*Result, error) {
	sc = pinMode(sc, sc.Mode)
	// Regions derive their demand from the parametric workload, split by
	// share; a trace source does not carry over to them.
	sc.Source = nil
	configured := geo.DefaultRegions()
	dep, err := geo.New(sc, configured)
	if err != nil {
		return nil, fmt.Errorf("regional: %w", err)
	}
	if err := dep.Run(context.Background(), marks, func(stack.Stop) {}); err != nil {
		return nil, fmt.Errorf("regional: %w", err)
	}

	regions, totalVM, totalStorage := dep.Report()
	var bill cloud.LedgerTotals
	for _, r := range regions {
		bill.Add(r.Bill)
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Regional deployment — per-region outcome (%v)", sc.Mode),
		"region", "share", "uplink_scale", "users", "quality", "vm_cost_usd")
	summary := map[string]float64{
		"vm_cost_total_usd":      totalVM,
		"storage_cost_total_usd": totalStorage,
		"bill_total_usd":         bill.TotalUSD(),
		"bill_reserved_usd":      bill.ReservedUSD,
		"bill_on_demand_usd":     bill.OnDemandUSD,
		"bill_spot_usd":          bill.SpotUSD,
		"bill_upfront_usd":       bill.UpfrontUSD,
		"bill_transfer_usd":      bill.TransferUSD,
		"interruptions":          float64(bill.Interruptions),
	}
	for i, r := range regions {
		scale := configured[i].UplinkScale
		if scale == 0 {
			scale = 1
		}
		tbl.AddRow(r.Name, configured[i].Share, scale, r.Users, r.Quality, r.VMCost)
		summary["quality_"+r.Name] = r.Quality
		summary["vm_cost_"+r.Name+"_usd"] = r.VMCost
	}
	return &Result{ID: "regional", Tables: []*metrics.Table{tbl}, Summary: summary}, nil
}
