// Package cloudmedia is a from-scratch Go reproduction of "CloudMedia:
// When Cloud on Demand Meets Video on Demand" (Wu, Wu, Li, Qiu, Lau —
// ICDCS 2011), packaged as an importable SDK.
//
// The root package is the facade. Pipeline runs the paper's one-shot
// analysis — Jackson queueing equilibrium → P2P peer supply →
// budget-constrained VM and storage rental — configured with functional
// options:
//
//	p, err := cloudmedia.NewPipeline(
//		cloudmedia.WithChunks(20),
//		cloudmedia.WithArrivalRate(0.25),
//		cloudmedia.WithPeerUplink(34e3),
//	)
//	res, err := p.Run(ctx)
//
// NewScenario assembles the full discrete-event system — workload trace,
// streaming simulator, measurement tracker, dynamic provisioning
// controller, IaaS cloud — whose context-aware Run streams provisioning
// rounds as they happen instead of accumulating them:
//
//	sc, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted, cloudmedia.WithHours(12))
//	report, err := sc.Run(ctx)
//
// Scenarios are derivable: With re-applies any options to an independent
// deep copy, which is what pkg/sweep builds on to run whole scenario
// families — mode × budget grids, uplink sweeps — concurrently:
//
//	cheap := sc.With(cloudmedia.WithBudgets(50, 1))
//
// Demand is pluggable: WithTrace (or WithWorkloadSource) replaces the
// paper's parametric workload with a recorded or synthesized arrival
// trace from pkg/trace, and simulate.OnArrivals records any run back
// into a replayable one:
//
//	tr, err := trace.ReadFile("day.csv")
//	sc, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted, cloudmedia.WithTrace(tr))
//
// The public subpackages expose the layers individually: pkg/plan the
// analytic building blocks, pkg/simulate the simulation engine and
// streaming API, pkg/trace demand traces (codec, generators, recorder),
// pkg/sweep the concurrent parameter-sweep harness, pkg/paper the
// table/figure reproduction registry behind cmd/cloudmedia (it runs
// any experiment on a simulate.Scenario), and
// pkg/tracker plus pkg/transport the Sec. V-B control/data plane over
// real TCP. The implementation lives under
// internal/ (queueing, p2p, provision, cloud, workload, sim, core,
// experiments) so it can be refactored without breaking importers. See
// README.md, DESIGN.md, and EXPERIMENTS.md.
package cloudmedia
