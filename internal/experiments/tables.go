package experiments

import (
	"context"
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/stack"
)

// Table2 emits the virtual cluster catalog (an input of the paper, shipped
// verbatim as DefaultVMClusters).
func Table2(stack.Spec) (*Result, error) {
	tbl := metrics.NewTable("Table II — virtual cluster configurations",
		"type", "utility", "memory_mb", "cpu_mhz", "disk_gb", "price_per_hour", "max_vms")
	for _, s := range cloud.DefaultVMClusters() {
		tbl.AddRow(s.Name, s.Utility, s.MemoryMB, s.CPUMHz, s.DiskGB, s.PricePerHour, s.MaxVMs)
	}
	return &Result{ID: "tab2", Tables: []*metrics.Table{tbl}, Summary: map[string]float64{
		"clusters": float64(len(cloud.DefaultVMClusters())),
	}}, nil
}

// Table3 emits the NFS cluster catalog (Table III).
func Table3(stack.Spec) (*Result, error) {
	tbl := metrics.NewTable("Table III — NFS cluster configurations",
		"type", "utility", "rotation_rpm", "price_per_gb_hour", "capacity_gb")
	for _, s := range cloud.DefaultNFSClusters() {
		tbl.AddRow(s.Name, s.Utility, s.RotationRPM, s.PricePerGBHour, s.CapacityGB)
	}
	return &Result{ID: "tab3", Tables: []*metrics.Table{tbl}, Summary: map[string]float64{
		"clusters": float64(len(cloud.DefaultNFSClusters())),
	}}, nil
}

// VMLatency reproduces the Sec. VI-C lifecycle measurement — launching a
// VM takes ≈25 s, and launches proceed in parallel so a whole batch
// becomes active together — on the model runs use. It builds a one-channel
// client-server stack, runs it for a minute with stops on a 0.5 s grid,
// and reports when the bootstrap plan's capacity starts serving.
func VMLatency(stack.Spec) (*Result, error) {
	sc := stack.DefaultSpec(modes.ClientServer, 1)
	sc.Workload.Channels = 1
	sc.Hours = 60.0 / 3600
	var bootstrap core.IntervalRecord
	sys, err := stack.Build(stack.Scenario{Spec: sc, OnInterval: func(rec core.IntervalRecord) { bootstrap = rec }}, stack.RegionID{})
	if err != nil {
		return nil, err
	}
	planned := bootstrap.VMPlan.TotalVMs() * sc.Channel.VMBandwidth
	if !(planned > 0) {
		return nil, fmt.Errorf("vmlat: bootstrap plan rents no capacity")
	}
	var marks []float64
	for t := 0.5; t <= 60; t += 0.5 {
		marks = append(marks, t)
	}
	activatedAt, serving := -1.0, 0.0
	if err := stack.Run(context.Background(), []*stack.System{sys}, marks, func(stop stack.Stop) {
		if activatedAt < 0 {
			if serving = sys.Sim.TotalCloudCapacity(); serving > 0 {
				activatedAt = stop.Time
			}
		}
	}); err != nil {
		return nil, err
	}
	if activatedAt < 0 {
		return nil, fmt.Errorf("vmlat: batch never became active")
	}
	if !mathx.ApproxEqual(serving, planned, 1e-9) {
		return nil, fmt.Errorf("vmlat: %v B/s of the batch's %v B/s serving at %v s", serving, planned, activatedAt)
	}
	tbl := metrics.NewTable("VM lifecycle latency (Sec. VI-C)", "metric", "value")
	rented := 0
	for _, n := range bootstrap.VMPlan.RentalVMs() {
		rented += n
	}
	tbl.AddRow("bootstrap_rented_vms", rented)
	tbl.AddRow("batch_active_after_s", activatedAt)
	tbl.AddRow("configured_boot_latency_s", sys.Cloud.BootLatency())
	return &Result{ID: "vmlat", Tables: []*metrics.Table{tbl}, Summary: map[string]float64{
		"boot_seconds": activatedAt,
	}}, nil
}

// StorageCost reproduces the Sec. VI-C storage observation: storing the
// whole 20-channel library costs ≈$0.018/day — negligible next to VM
// rental. It plans placement for the paper-scale library (20 channels ×
// 20 chunks × 15 MB) with the real Table III prices.
func StorageCost(sc stack.Spec) (*Result, error) {
	var demands []provision.ChunkDemand
	for c := 0; c < 20; c++ {
		for i := 0; i < 20; i++ {
			// Popularity-ordered demands so the heuristic's ordering shows.
			demands = append(demands, provision.ChunkDemand{
				Channel: c, Chunk: i, Demand: float64((20 - c) * (20 - i)),
			})
		}
	}
	const paperChunkBytes = 15e6
	plan, err := provision.PlanStorage(demands, paperChunkBytes, cloud.DefaultNFSClusters(), sc.StorageBudget)
	if err != nil {
		return nil, err
	}
	perDay := plan.CostPerHour * 24
	tbl := metrics.NewTable("Storage cost for the full library (Sec. VI-C)", "metric", "value")
	tbl.AddRow("chunks_stored", len(plan.Placements))
	for name, gb := range plan.GBPerCluster {
		tbl.AddRow("gb_on_"+name, gb)
	}
	tbl.AddRow("cost_per_hour_usd", plan.CostPerHour)
	tbl.AddRow("cost_per_day_usd", perDay)
	return &Result{ID: "storcost", Tables: []*metrics.Table{tbl}, Summary: map[string]float64{
		"cost_per_day_usd": perDay,
	}}, nil
}

// Runner is an experiment entry point.
type Runner func(stack.Spec) (*Result, error)

// Experiment is one registry entry: the ID the CLI names it by and its
// runner.
type Experiment struct {
	ID  string
	Run Runner
}

// Registry lists every experiment in the suite's presentation order: the
// Table II/III catalogs first, then the figures in paper order, then the
// microbenchmarks and the mode-sensitive entries.
func Registry() []Experiment {
	return []Experiment{
		{"tab2", Table2},
		{"tab3", Table3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"vmlat", VMLatency},
		{"storcost", StorageCost},
		{"timeline", TimelineReport},
		{"regional", Regional},
		{"costfrontier", CostFrontier},
		{"tracereplay", TraceReplay},
		{"resilience", Resilience},
	}
}
