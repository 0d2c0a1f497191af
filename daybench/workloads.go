package main

import (
	"fmt"
	"runtime"

	"cloudmedia"
	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
)

// horizonHours is the simulated length of every workload: one day.
const horizonHours = 24

// dayWorkload is one benchmark input: a cloud-assisted day built from the
// seed, run through the public simulate.Scenario.Run entry point.
type dayWorkload struct {
	name string
	// build returns the day's scenario for a seed and worker count.
	build func(seed int64, workers int) (simulate.Scenario, error)
	// workers is the pool size of the reference day of a traced
	// invocation; timed and traced days are serial.
	workers func() int
}

func serial() int { return 1 }

var workloads = []dayWorkload{
	{
		// The headline 100M-viewer day: fluid kernel plus M/M/m sizing at
		// very large offered loads. Same scenario as the root package's
		// BenchmarkFluid100MViewers.
		name: "fluid-100m-day",
		build: func(seed int64, workers int) (simulate.Scenario, error) {
			sc := simulate.Default(simulate.CloudAssisted, 1).With(
				cloudmedia.WithFidelity(simulate.FidelityFluid),
				cloudmedia.WithViewerScale(34_000_000),
				cloudmedia.WithChannels(48),
				cloudmedia.WithHours(horizonHours),
				cloudmedia.WithBudgets(5_200_000, 3000),
				cloudmedia.WithVMClusters(
					plan.VMCluster{Name: "mega-a", MaxVMs: 4_200_000, PricePerHour: 0.64, Utility: 1.0},
					plan.VMCluster{Name: "mega-b", MaxVMs: 4_200_000, PricePerHour: 0.60, Utility: 0.9},
				),
				cloudmedia.WithSeed(seed),
				cloudmedia.WithWorkers(workers),
			)
			return sc, sc.Validate()
		},
		workers: func() int { return min(2, runtime.NumCPU()) },
	},
	{
		// The per-viewer event engine at paper scale: event heap, GC, and
		// thinning Source.Rate calls; sizing is cheap here.
		name: "event-paper-day",
		build: func(seed int64, workers int) (simulate.Scenario, error) {
			sc := simulate.Default(simulate.CloudAssisted, 10).With(
				cloudmedia.WithChannels(20),
				cloudmedia.WithHours(horizonHours),
				cloudmedia.WithSeed(seed),
				cloudmedia.WithWorkers(workers),
			)
			return sc, sc.Validate()
		},
		workers: serial,
	},
	{
		// Minute-long control rounds with forecasting, a hedged lookahead
		// planner, spot pricing and faults: the control plane dominates,
		// with many small sizing calls instead of a few huge ones.
		name: "control-minute-day",
		build: func(seed int64, workers int) (simulate.Scenario, error) {
			faults, err := simulate.ParseFault("outage@19.5h+2h,preempt@20h:0.6,degrade@8h+3h:0.5")
			if err != nil {
				return simulate.Scenario{}, err
			}
			sc := simulate.Default(simulate.CloudAssisted, 1).With(
				cloudmedia.WithChannels(24),
				cloudmedia.WithHours(horizonHours),
				cloudmedia.WithInterval(60),
				cloudmedia.WithPredictor(simulate.EWMA{Alpha: 0.4}),
				cloudmedia.WithPolicy(simulate.Lookahead{SpotHedge: true}),
				cloudmedia.WithPricing(simulate.SpotPricing()),
				cloudmedia.WithFaults(faults),
				cloudmedia.WithSeed(seed),
				cloudmedia.WithWorkers(workers),
			)
			return sc, sc.Validate()
		},
		workers: serial,
	},
}

func lookupWorkload(name string) (dayWorkload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return dayWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
