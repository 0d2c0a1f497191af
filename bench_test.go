package cloudmedia

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks of the analysis kernels and ablations of the
// design choices called out in DESIGN.md. Figure benchmarks run the full
// stack (workload → simulator → controller → cloud) over a short horizon;
// each reports domain metrics via b.ReportMetric in addition to wall time.

import (
	"context"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/experiments"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/p2p"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/sweep"
)

// benchScenario is the short-horizon configuration the figure benches use.
func benchScenario(mode modes.Mode) stack.Spec {
	sc := stack.DefaultSpec(mode, 1)
	sc.Hours = 2
	sc.IntervalSeconds = 1800
	sc.SampleSeconds = 600
	return sc
}

// benchDemands builds a paper-scale chunk demand list (20 channels × 20
// chunks, Zipf-skewed) for the heuristic benchmarks.
func benchDemands() []provision.ChunkDemand {
	var out []provision.ChunkDemand
	for c := 0; c < 20; c++ {
		for i := 0; i < 20; i++ {
			out = append(out, provision.ChunkDemand{
				Channel: c, Chunk: i,
				// ≈100 VMs in total: comfortably inside the $100/h budget
				// and the Table II capacity, like the paper's steady state.
				Demand: 1.6e5 * float64(20-c) / float64(1+i),
			})
		}
	}
	return out
}

// BenchmarkTable2VMProvisioning exercises the VM-configuration heuristic
// against the Table II catalog (the artifact behind Table II).
func BenchmarkTable2VMProvisioning(b *testing.B) {
	demands := benchDemands()
	clusters := cloud.DefaultVMClusters()
	var utility float64
	for i := 0; i < b.N; i++ {
		plan, err := provision.PlanVMs(demands, cloud.DefaultVMBandwidth, clusters, 100)
		if err != nil {
			b.Fatal(err)
		}
		utility = plan.Utility
	}
	b.ReportMetric(utility, "utility")
}

// BenchmarkTable3StorageRental exercises the storage-rental heuristic
// against the Table III catalog.
func BenchmarkTable3StorageRental(b *testing.B) {
	demands := benchDemands()
	clusters := cloud.DefaultNFSClusters()
	var cost float64
	for i := 0; i < b.N; i++ {
		plan, err := provision.PlanStorage(demands, 15e6, clusters, 1)
		if err != nil {
			b.Fatal(err)
		}
		cost = plan.CostPerHour
	}
	b.ReportMetric(cost*24, "$/day")
}

// BenchmarkFig4Provisioning regenerates the provisioned-vs-used comparison.
func BenchmarkFig4Provisioning(b *testing.B) {
	var p2pOverCS float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchScenario(modes.ClientServer))
		if err != nil {
			b.Fatal(err)
		}
		p2pOverCS = res.Summary["p2p_over_cs_reserved"]
	}
	b.ReportMetric(p2pOverCS, "p2p/cs-reserved")
}

// BenchmarkFig5Quality regenerates the streaming-quality comparison.
func BenchmarkFig5Quality(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchScenario(modes.ClientServer))
		if err != nil {
			b.Fatal(err)
		}
		q = res.Summary["cs_quality_mean"]
	}
	b.ReportMetric(q, "cs-quality")
}

// BenchmarkFig6QualityVsSize regenerates the quality-vs-channel-size scatter.
func BenchmarkFig6QualityVsSize(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchScenario(modes.ClientServer))
		if err != nil {
			b.Fatal(err)
		}
		q = res.Summary["large_channel_quality"]
	}
	b.ReportMetric(q, "large-ch-quality")
}

// BenchmarkFig7BandwidthVsSize regenerates the bandwidth-vs-size scatter.
func BenchmarkFig7BandwidthVsSize(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchScenario(modes.ClientServer))
		if err != nil {
			b.Fatal(err)
		}
		slope = res.Summary["cs_mbps_per_user"]
	}
	b.ReportMetric(slope, "cs-mbps/user")
}

// BenchmarkFig8StorageUtility regenerates the storage-utility evolution.
func BenchmarkFig8StorageUtility(b *testing.B) {
	var u float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchScenario(modes.CloudAssisted))
		if err != nil {
			b.Fatal(err)
		}
		u = res.Summary["channel_0_mean_utility"]
	}
	b.ReportMetric(u, "ch0-utility")
}

// BenchmarkFig9VMUtility regenerates the VM-utility evolution.
func BenchmarkFig9VMUtility(b *testing.B) {
	var u float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchScenario(modes.CloudAssisted))
		if err != nil {
			b.Fatal(err)
		}
		u = res.Summary["channel_0_mean_utility"]
	}
	b.ReportMetric(u, "ch0-utility")
}

// BenchmarkFig10Cost regenerates the VM rental cost comparison.
func BenchmarkFig10Cost(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchScenario(modes.ClientServer))
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Summary["p2p_over_cs_cost"]
	}
	b.ReportMetric(ratio, "p2p/cs-cost")
}

// BenchmarkFig11PeerBandwidth regenerates the uplink-ratio sensitivity.
func BenchmarkFig11PeerBandwidth(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchScenario(modes.CloudAssisted))
		if err != nil {
			b.Fatal(err)
		}
		q = res.Summary["quality_ratio_1.2"]
	}
	b.ReportMetric(q, "quality@1.2")
}

// BenchmarkVMStartupLatency measures the simulated VM lifecycle operations
// (Sec. VI-C: ≈25 s boot, faster shutdown, parallel launches).
func BenchmarkVMStartupLatency(b *testing.B) {
	var boot float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.VMLatency(stack.Spec{})
		if err != nil {
			b.Fatal(err)
		}
		boot = res.Summary["boot_seconds"]
	}
	b.ReportMetric(boot, "boot-s")
}

// BenchmarkStorageCostLibrary measures the storage bill of the paper-scale
// library (Sec. VI-C: ≈$0.018/day).
func BenchmarkStorageCostLibrary(b *testing.B) {
	var perDay float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.StorageCost(stack.DefaultSpec(modes.CloudAssisted, 1))
		if err != nil {
			b.Fatal(err)
		}
		perDay = res.Summary["cost_per_day_usd"]
	}
	b.ReportMetric(perDay, "$/day")
}

// --- Analysis kernels ---

func paperChannel() (queueing.Config, queueing.TransferMatrix) {
	cfg := queueing.Config{
		Chunks:          20,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
	}
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		panic(err)
	}
	return cfg, p
}

// hundredMChannel is the channel of the 100M-viewer fluid day
// (BenchmarkFluid100MViewers): 8 chunks of 75 s on 5-slot VMs. It is the
// stack's default channel, so the minute-interval control day runs on it
// too.
func hundredMChannel() (queueing.Config, queueing.TransferMatrix) {
	cfg := queueing.Config{
		Chunks:          8,
		PlaybackRate:    50e3,
		ChunkSeconds:    75,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
		SlotsPerVM:      5,
	}
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		panic(err)
	}
	return cfg, p
}

// BenchmarkQueueingSolve measures one channel's Jackson solve + sizing at
// two loads: the paper's (Λ=0.25 on its 20-chunk channel, a few servers
// per chunk) and a loaded channel at the 100M-viewer day's evening peak
// (Λ=2000 on that day's channel, up to ~27k servers per chunk).
func BenchmarkQueueingSolve(b *testing.B) {
	paperCfg, paperP := paperChannel()
	peakCfg, peakP := hundredMChannel()
	for _, bc := range []struct {
		name   string
		cfg    queueing.Config
		p      queueing.TransferMatrix
		lambda float64
	}{
		{"paper", paperCfg, paperP, 0.25},
		{"100m-peak", peakCfg, peakP, 2000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var servers int
			for i := 0; i < b.N; i++ {
				eq, err := queueing.Solve(bc.cfg, bc.p, bc.lambda, 0)
				if err != nil {
					b.Fatal(err)
				}
				servers = eq.TotalServers()
			}
			b.ReportMetric(float64(servers), "servers")
		})
	}
}

// BenchmarkP2PSolve measures the full peer-supply pipeline (Proposition 1
// solves + Eqn. 5) for one channel.
func BenchmarkP2PSolve(b *testing.B) {
	cfg, p := paperChannel()
	eq, err := queueing.Solve(cfg, p, 0.25, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p2p.Solve(p2p.Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 34e3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveDemand measures the demand plane's per-channel unit of
// work — traffic equations, M/M/m sizing, Proposition 1 and Eqn. (5) —
// as the minute-interval control day runs it thousands of times: the
// stack's 8-chunk channel on the paper's viewing matrix in P2P mode, at
// one of its 24 Zipf channels' small loads (Λ = 0.05/s, a few servers
// per chunk) with the ≈270 Kbps mean peer uplink.
func BenchmarkDeriveDemand(b *testing.B) {
	cfg, p := hundredMChannel()
	in := core.ChannelInput{ArrivalRate: 0.05, Transfer: p, MeanUplink: 34e3}
	b.ReportAllocs()
	var demand float64
	for i := 0; i < b.N; i++ {
		d, err := core.DeriveDemand(cfg, in, true)
		if err != nil {
			b.Fatal(err)
		}
		demand = mathx.Sum(d.CloudDemand)
	}
	b.ReportMetric(demand, "cloud_Bps")
}

// BenchmarkErlangC measures the queueing primitive in the inner loop of
// server sizing.
func BenchmarkErlangC(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mathx.ErlangC(40, 35.5)
	}
	_ = sink
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationHeuristicVsNaive compares the marginal-utility-per-cost
// ordering of the VM heuristic against a naive catalog-order greedy,
// reporting the utility gap the ordering buys.
func BenchmarkAblationHeuristicVsNaive(b *testing.B) {
	demands := benchDemands()
	smart := cloud.DefaultVMClusters()
	// Naive order: force the heuristic to see utilities that neutralize the
	// u/p ranking (equal marginal utility), emulating first-fit.
	naive := cloud.DefaultVMClusters()
	for i := range naive {
		naive[i].Utility = naive[i].PricePerHour // u/p = 1 everywhere
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		sp, err := provision.PlanVMs(demands, cloud.DefaultVMBandwidth, smart, 100)
		if err != nil {
			b.Fatal(err)
		}
		np, err := provision.PlanVMs(demands, cloud.DefaultVMBandwidth, naive, 100)
		if err != nil {
			b.Fatal(err)
		}
		// Evaluate the naive placement under the true utilities.
		var naiveTrue float64
		for _, a := range np.Allocations {
			for _, s := range smart {
				if s.Name == a.Cluster {
					naiveTrue += s.Utility * a.VMs
				}
			}
		}
		gap = sp.Utility - naiveTrue
	}
	b.ReportMetric(gap, "utility-gap")
}

// BenchmarkAblationPredictiveVsStatic compares the paper's hourly
// predictive provisioning against a static provision-for-the-peak baseline,
// reporting the cost ratio (static/predictive ≥ 1 means prediction saves).
func BenchmarkAblationPredictiveVsStatic(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(modes.ClientServer)
		predictive, err := experiments.RunTimeline(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Static baseline: same demand curve, but billed at the peak hourly
		// rate for every hour (dedicated servers sized for the peak).
		var peak float64
		for _, h := range predictive.Hourlies {
			if h.VMCostPerHour > peak {
				peak = h.VMCostPerHour
			}
		}
		static := peak * float64(len(predictive.Hourlies))
		if predictive.VMCostTotal > 0 {
			ratio = static / predictive.VMCostTotal
		}
	}
	b.ReportMetric(ratio, "static/predictive")
}

// BenchmarkAblationPredictors compares the paper's last-interval predictor
// against the EWMA and peak-of-window extensions under a flash crowd,
// reporting the quality achieved by each forecaster for the same spend
// discipline. (The paper flags richer predictors as future work.)
func BenchmarkAblationPredictors(b *testing.B) {
	run := func(p core.Predictor) (quality, cost float64) {
		sc := benchScenario(modes.ClientServer)
		sc.Hours = 3
		sc.Predictor = p
		sc.Workload.FlashCrowds = []workload.FlashCrowd{{PeakHour: 1.5, WidthHours: 0.5, Amplitude: 3}}
		tl, err := experiments.RunTimeline(sc)
		if err != nil {
			b.Fatal(err)
		}
		return tl.MeanQuality, tl.VMCostTotal
	}
	var lastQ, ewmaQ, peakQ float64
	for i := 0; i < b.N; i++ {
		lastQ, _ = run(core.LastInterval{})
		ewmaQ, _ = run(core.EWMA{Alpha: 0.4})
		peakQ, _ = run(core.PeakOfWindow{Window: 3})
	}
	b.ReportMetric(lastQ, "q-last")
	b.ReportMetric(ewmaQ, "q-ewma")
	b.ReportMetric(peakQ, "q-peak")
}

// BenchmarkAblationPeerScheduling compares rarest-first against
// demand-proportional peer uplink allocation (Sec. IV-C's scheduling
// choice), reporting the quality each policy sustains for the same spend.
func BenchmarkAblationPeerScheduling(b *testing.B) {
	run := func(sched sim.PeerScheduling) float64 {
		sc := benchScenario(modes.CloudAssisted)
		sc.Scheduling = sched
		tl, err := experiments.RunTimeline(sc)
		if err != nil {
			b.Fatal(err)
		}
		return tl.MeanQuality
	}
	var rarest, proportional float64
	for i := 0; i < b.N; i++ {
		rarest = run(sim.RarestFirst)
		proportional = run(sim.Proportional)
	}
	b.ReportMetric(rarest, "q-rarest")
	b.ReportMetric(proportional, "q-proportional")
}

// --- Sweep harness ---

// BenchmarkSweep3x3 runs the examples/sweep-shaped grid — 3 modes × 3 VM
// budgets over a short horizon — through the pkg/sweep worker pool, so
// BENCH_*.json tracks sweep throughput across PRs. Reports cells/s in
// addition to wall time per grid.
func BenchmarkSweep3x3(b *testing.B) {
	base := simulate.Default(simulate.ClientServer, 1)
	base.Hours = 1
	base.SampleSeconds = 900
	grid := sweep.Grid{
		Base: base,
		Axes: []sweep.Axis{
			sweep.Modes(simulate.ClientServer, simulate.P2P, simulate.CloudAssisted),
			sweep.VMBudgets(50, 100, 200),
		},
	}
	runner := sweep.Runner{Workers: 4}
	var cells int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := runner.Run(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		cells = len(results)
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// --- Engine fidelities and scale (PR 3) ---

// BenchmarkFluidMillionViewers is the scale acceptance benchmark: a full
// 24-hour scenario with ≥1,000,000 modeled concurrent viewers on the
// fluid-cohort engine, dynamic provisioning included. Reports the peak
// concurrent viewer count alongside wall time; the event engine cannot
// represent this crowd at all (it would need tens of GB of viewer
// objects), while the fluid engine's state is O(channels × chunks).
func BenchmarkFluidMillionViewers(b *testing.B) {
	sc := simulate.Default(simulate.CloudAssisted, 1)
	sc = sc.With(
		WithFidelity(simulate.FidelityFluid),
		WithViewerScale(1_000_000),
		WithChannels(20),
		WithHours(24),
		WithBudgets(150_000, 100),
		WithVMClusters(
			plan.VMCluster{Name: "mega-a", MaxVMs: 120_000, PricePerHour: 0.64, Utility: 1.0},
			plan.VMCluster{Name: "mega-b", MaxVMs: 120_000, PricePerHour: 0.60, Utility: 0.9},
		),
	)
	var peak, quality float64
	for i := 0; i < b.N; i++ {
		peak, quality = 0, 0
		rep, err := sc.Run(context.Background(), simulate.OnSnapshot(func(snap simulate.Snapshot) {
			if float64(snap.Users) > peak {
				peak = float64(snap.Users)
			}
		}))
		if err != nil {
			b.Fatal(err)
		}
		quality = rep.MeanQuality
	}
	b.ReportMetric(peak, "peak-viewers")
	b.ReportMetric(quality, "quality")
}

// BenchmarkFluid10MViewers is the ROADMAP's next scale bar: a full
// 24-hour day with ~10,000,000 peak concurrent viewers on the fluid
// engine, dynamic provisioning included — serial and with the
// channel-sharded worker pool (results are bit-identical; only wall time
// moves). The serial/pool pair measures the tentpole speedup on the host;
// the pool run is the one the <5 s acceptance target applies to.
func BenchmarkFluid10MViewers(b *testing.B) {
	base := simulate.Default(simulate.CloudAssisted, 1)
	base = base.With(
		WithFidelity(simulate.FidelityFluid),
		WithViewerScale(3_400_000), // ≈10M at the diurnal+flash-crowd peak
		WithChannels(40),
		WithHours(24),
		WithBudgets(520_000, 300),
		WithVMClusters(
			plan.VMCluster{Name: "mega-a", MaxVMs: 420_000, PricePerHour: 0.64, Utility: 1.0},
			plan.VMCluster{Name: "mega-b", MaxVMs: 420_000, PricePerHour: 0.60, Utility: 0.9},
		),
	)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS-bounded pool
		name := "serial"
		if workers == 0 {
			name = "pool"
		}
		sc := base.With(WithWorkers(workers))
		b.Run(name, func(b *testing.B) {
			var peak, quality float64
			for i := 0; i < b.N; i++ {
				peak, quality = 0, 0
				rep, err := sc.Run(context.Background(), simulate.OnSnapshot(func(snap simulate.Snapshot) {
					if float64(snap.Users) > peak {
						peak = float64(snap.Users)
					}
				}))
				if err != nil {
					b.Fatal(err)
				}
				quality = rep.MeanQuality
			}
			b.ReportMetric(peak, "peak-viewers")
			b.ReportMetric(quality, "quality")
		})
	}
}

// BenchmarkFluid100MViewers is the ROADMAP's 100M bar: a full 24-hour
// day with ~100,000,000 peak concurrent viewers on the fluid engine,
// dynamic provisioning included. At this scale the PR 8 engine was
// bottlenecked outside the integrator — the serial per-batch RatesInto
// prologue and the controller's per-interval snapshot/derive/forecast
// loop — so this bench caps the demand plane, the sharded control
// plane, and the fused step kernel together. Serial and pool
// results are bit-identical (pinned by the worker-invariance tests);
// only wall time moves. Guarded by -short so `go test ./...` stays
// fast; the bench snapshot (scripts/bench.sh) runs it.
func BenchmarkFluid100MViewers(b *testing.B) {
	if testing.Short() {
		b.Skip("100M-viewer day skipped in -short mode")
	}
	base := simulate.Default(simulate.CloudAssisted, 1)
	base = base.With(
		WithFidelity(simulate.FidelityFluid),
		WithViewerScale(34_000_000), // ≈100M at the diurnal+flash-crowd peak
		WithChannels(48),
		WithHours(24),
		WithBudgets(5_200_000, 3000),
		WithVMClusters(
			plan.VMCluster{Name: "mega-a", MaxVMs: 4_200_000, PricePerHour: 0.64, Utility: 1.0},
			plan.VMCluster{Name: "mega-b", MaxVMs: 4_200_000, PricePerHour: 0.60, Utility: 0.9},
		),
	)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS-bounded pool
		name := "serial"
		if workers == 0 {
			name = "pool"
		}
		sc := base.With(WithWorkers(workers))
		b.Run(name, func(b *testing.B) {
			var peak, quality float64
			for i := 0; i < b.N; i++ {
				peak, quality = 0, 0
				rep, err := sc.Run(context.Background(), simulate.OnSnapshot(func(snap simulate.Snapshot) {
					if float64(snap.Users) > peak {
						peak = float64(snap.Users)
					}
				}))
				if err != nil {
					b.Fatal(err)
				}
				quality = rep.MeanQuality
			}
			b.ReportMetric(peak, "peak-viewers")
			b.ReportMetric(quality, "quality")
		})
	}
}

// BenchmarkEventParallelChannels measures the event engine's worker-pool
// sharding: the same 12-channel scenario stepped serially and with the
// pool (results are identical; only wall time moves).
func BenchmarkEventParallelChannels(b *testing.B) {
	base := stack.DefaultSpec(modes.ClientServer, 2)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS-bounded
		name := "serial"
		if workers == 0 {
			name = "pool"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wl := base.Workload
				wl.Channels = 12
				transfer, err := viewing.SequentialWithJumps(base.Channel.Chunks, 0.9, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(sim.Config{
					Mode:     sim.ClientServer,
					Channel:  base.Channel,
					Workload: wl,
					Transfer: transfer,
					Seed:     7,
					Workers:  workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				for c := 0; c < s.Channels(); c++ {
					for j := 0; j < base.Channel.Chunks; j++ {
						if err := s.SetCloudCapacity(c, j, 1e6); err != nil {
							b.Fatal(err)
						}
					}
				}
				s.RunUntil(4 * 3600)
			}
		})
	}
}

// --- Resilience (PR 10) ---

// BenchmarkResilienceDay runs the adversarial 24-hour day behind the
// resilience experiment end to end: spot pricing, the hedged lookahead,
// and a fault schedule landing inside the evening flash crowd — a region
// outage (applied as a capacity blackout in this single-region run) plus
// a provider mass-preemption. This is the full fault path — scheduled
// events, the seeded interruption process, preemption accounting, and
// capacity rescaling — at benchmark cadence, so BENCH_*.json tracks its
// cost across PRs. Reports quality, bill, and interruption count.
func BenchmarkResilienceDay(b *testing.B) {
	faults, err := simulate.ParseFault("outage@19.5h+2h,preempt@20h:0.6")
	if err != nil {
		b.Fatal(err)
	}
	sc := simulate.Default(simulate.CloudAssisted, 1)
	sc = sc.With(
		WithHours(24),
		WithPolicy(Lookahead{SpotHedge: true}),
		WithPricing(simulate.SpotPricing()),
		WithFaults(faults),
	)
	var quality, bill float64
	var interruptions int
	for i := 0; i < b.N; i++ {
		rep, err := sc.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		quality, bill = rep.MeanQuality, rep.Bill.TotalUSD()
		interruptions = rep.Bill.Interruptions
	}
	b.ReportMetric(quality, "quality")
	b.ReportMetric(bill, "bill-usd")
	b.ReportMetric(float64(interruptions), "interruptions")
}
