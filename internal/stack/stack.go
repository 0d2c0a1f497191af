// Package stack assembles one CloudMedia deployment — demand source,
// engine (per-viewer event or aggregate fluid), cloud, broker, and
// provisioning controller — from a Scenario, and bootstraps it from the
// analytic t=0 estimates of Sec. V-B. It is the single stack builder:
// the experiment harness builds every single-region run through it, and
// internal/geo builds each region of a multi-region deployment through
// it.
package stack

import (
	"fmt"
	"math"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/fluid"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// ViewersPerScale is the approximate steady-state concurrent viewer count
// one unit of workload scale buys under DefaultScenario's session length
// (the "scale 1 targets ~250 concurrent viewers" contract of the public
// API). WithViewerScale converts absolute viewer targets through it.
const ViewersPerScale = 250

// BaseRateForViewers returns the aggregate base arrival rate that targets
// the given steady-state concurrent viewer count under DefaultScenario's
// session length — the absolute counterpart of the relative scale knob
// (DefaultScenario uses 0.6 users/s per unit of scale).
func BaseRateForViewers(viewers float64) float64 {
	return 0.6 * viewers / ViewersPerScale
}

// Scenario bundles every knob one stack needs: the single internal spec
// that pkg/simulate, the experiment harness and geo all build from.
type Scenario struct {
	Mode sim.Mode
	// Fidelity selects the engine: zero or modes.FidelityEvent builds the
	// per-viewer discrete-event simulator, modes.FidelityFluid the
	// aggregate cohort integrator (for million-viewer scale).
	Fidelity        modes.Fidelity
	Channel         queueing.Config
	Workload        workload.Params
	Hours           float64 // simulated duration
	IntervalSeconds float64 // controller period T
	VMBudget        float64 // B_M, $/hour
	StorageBudget   float64 // B_S, $/hour
	Seed            int64
	SampleSeconds   float64 // measurement sampling period
	UplinkRatio     float64 // if > 0, rescale peer uplinks to ratio × r (Fig. 11)
	// Predictor overrides the controller's arrival-rate forecaster; nil
	// uses the paper's last-interval rule.
	Predictor core.Predictor
	// Policy selects the provisioning policy; nil uses provision.Greedy,
	// the paper's heuristic.
	Policy provision.Policy
	// Pricing selects the billing plan the cloud ledger accrues under;
	// the zero value is pure on-demand, the paper's literal pricing.
	Pricing cloud.PricingPlan
	// Faults is the declarative failure plan injected at control barriers:
	// spot preemptions and capacity degradations apply directly; region
	// outages degenerate to full blackouts in a single-region run (the
	// "regional" experiment realizes them as cross-region failover
	// instead). nil injects nothing — though a spot Pricing plan with an
	// interruption rate still drives its own seeded preemption process.
	Faults *fault.Schedule
	// Scheduling overrides the P2P uplink allocation policy; zero uses
	// rarest-first, the paper's scheme.
	Scheduling sim.PeerScheduling
	// Workers bounds the worker pool both engines use to step channels in
	// parallel between control barriers; 0 means GOMAXPROCS. Results are
	// bit-identical for every value.
	Workers int
	// VMClusters and NFSClusters override the rental catalogs; nil uses the
	// paper's Table II/III defaults. Regional price lists are the
	// interesting knob (see examples/multiregion).
	VMClusters  []cloud.VMClusterSpec
	NFSClusters []cloud.NFSClusterSpec
	// StaticProvisioning keeps the bootstrap (t=0) rental for the whole
	// run instead of starting the periodic controller — the
	// fixed-provisioning baseline the paper's dynamic scheme improves on.
	StaticProvisioning bool
	// Source overrides the demand side of the workload: per-channel
	// arrival intensity over time (a recorded trace, a synthetic
	// generator, …). nil keeps the parametric Workload demand. When set,
	// the channel count follows the source; Workload still supplies the
	// behavioural parameters (VCR jumps, peer uplinks) and the oracle
	// policies' true rates come from the source.
	Source workload.Source
	// OnArrivals observes every realized arrival (channel, time, mass) —
	// the recording seam behind trace.Recorder. Calls for one channel are
	// serialized; different channels may call concurrently from the event
	// engine's channel workers.
	OnArrivals func(channel int, t, n float64)
	// OnInterval streams each provisioning round to the caller as soon as
	// it completes; nil disables streaming.
	OnInterval func(core.IntervalRecord)
	// Pacer is forwarded to the engine's pacing hook (sim.Config.Pacer):
	// called once per control barrier, before state advances, so a live
	// serving layer can sleep the run against a wall clock. nil runs the
	// engines at full speed.
	Pacer func(simNow float64)
	// DiscardRecords drops the controller's in-memory interval history so
	// long streaming runs hold only the current round.
	DiscardRecords bool
}

// DefaultScenario returns the reduced-scale counterpart of the paper's
// setup: Zipf channels, diurnal arrivals with two flash crowds, hourly
// provisioning, Table II/III clusters, B_M = $100/h, B_S = $1/h.
//
// Three deliberate reductions keep runs laptop-sized (recorded in
// EXPERIMENTS.md): 10 channels of 8×75 s chunks instead of 20 channels of
// 20×300 s (same 1:25 r/R ratio, proportionally shorter videos), and an
// arrival rate targeting ~250 concurrent viewers instead of ~2500. The
// chunk-queue count (80) is sized against the unchanged Table II cluster
// capacity (150 VMs) the same way the paper's 400 queues sat against its
// 150 VMs: client-server demand lands near the paper's ≈$48/h average
// without saturating the clusters, leaving the P2P savings visible. Pass
// scale > 1 to move toward paper-scale crowds.
func DefaultScenario(mode sim.Mode, scale float64) Scenario {
	if scale <= 0 {
		scale = 1
	}
	wl := workload.Default()
	wl.Channels = 6
	wl.ZipfExponent = 0.8
	wl.BaseArrivalRate = 0.6 * scale // ≈300·scale concurrent at mean session ≈7 min
	wl.JumpMeanSeconds = 225         // 3 chunks, preserving the paper's jump:chunk ratio
	return Scenario{
		Mode: mode,
		Channel: queueing.Config{
			Chunks:          8,
			PlaybackRate:    50e3,
			ChunkSeconds:    75,
			VMBandwidth:     cloud.DefaultVMBandwidth,
			EntryFirstChunk: 0.7,
			// Provision at fifth-of-a-VM granularity (2 Mbps slots): the
			// fractional VM shares of Eqn. (7) in action. See the
			// queueing.Config.SlotsPerVM doc comment.
			SlotsPerVM: 5,
		},
		Workload:        wl,
		Hours:           24,
		IntervalSeconds: 3600,
		VMBudget:        100,
		StorageBudget:   1,
		Seed:            42,
		SampleSeconds:   900,
	}
}

// Validate reports the first violated scenario invariant the engines
// would not catch themselves (they validate the channel shape and the
// workload). A zero interval or budget is valid: the controller applies
// its defaults. Every number must be finite: a NaN would slip past the
// sign checks and stall or silently zero the run.
func (sc Scenario) Validate() error {
	for _, f := range [...]struct {
		name  string
		value float64
	}{
		{"duration", sc.Hours}, {"interval", sc.IntervalSeconds}, {"sampling period", sc.SampleSeconds},
		{"VM budget", sc.VMBudget}, {"storage budget", sc.StorageBudget}, {"uplink ratio", sc.UplinkRatio},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("stack: non-finite %s %v", f.name, f.value)
		}
	}
	switch {
	case sc.Hours <= 0:
		return fmt.Errorf("stack: non-positive duration %v h", sc.Hours)
	case sc.IntervalSeconds < 0:
		return fmt.Errorf("stack: negative interval %v s", sc.IntervalSeconds)
	case sc.VMBudget < 0:
		return fmt.Errorf("stack: negative VM budget %v $/h", sc.VMBudget)
	case sc.StorageBudget < 0:
		return fmt.Errorf("stack: negative storage budget %v $/h", sc.StorageBudget)
	case sc.UplinkRatio < 0:
		return fmt.Errorf("stack: negative uplink ratio %v", sc.UplinkRatio)
	}
	return nil
}

// JumpPrior returns the analytic transfer-matrix prior for the
// scenario's channel and workload: sequential viewing with 90% per-chunk
// retention plus VCR jumps, whose per-chunk probability is T₀ over the
// mean jump interval (capped at 1).
func (sc Scenario) JumpPrior() (queueing.TransferMatrix, error) {
	jump := sc.Channel.ChunkSeconds / sc.Workload.JumpMeanSeconds
	if jump > 1 {
		jump = 1
	}
	return viewing.SequentialWithJumps(sc.Channel.Chunks, 0.9, jump)
}

// RegionID identifies one regional stack of a multi-region deployment.
// The zero value is the single-region stack.
type RegionID struct {
	// Name scopes region-tagged fault events: an event naming another
	// region skips this stack. "" applies only the global events.
	Name string
	// FaultSeedOffset is added to Scenario.Seed to seed the stack's
	// spot-interruption process.
	FaultSeedOffset int64
}

// System is one assembled CloudMedia stack. Sim is the engine behind the
// scenario's fidelity: *sim.Simulator for event mode, *fluid.Backend for
// fluid mode — callers only see the sim.Backend seam.
type System struct {
	Scenario   Scenario
	Sim        sim.Backend
	Cloud      *cloud.Cloud
	Broker     *cloud.Broker
	Controller *core.Controller
	Transfer   queueing.TransferMatrix
}

// Build assembles the stack and applies bootstrap provisioning from the
// analytic t=0 estimates, exactly as Sec. V-B describes ("based on the
// application's empirical user scale and viewing pattern information").
// region is the stack's identity in a multi-region deployment; pass the
// zero value for a single-region run.
func Build(sc Scenario, region RegionID) (*System, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.SampleSeconds <= 0 {
		sc.SampleSeconds = 900
	}
	// Resolve the demand source: the scenario's override (cloned so
	// concurrent runs share no lazy caches) or the parametric workload.
	// Everything downstream — the engines' arrival sampling, the
	// bootstrap estimates, and the oracle policies' true rates — reads
	// demand through this one seam.
	var demand workload.Source
	if sc.Source != nil {
		demand = sc.Source.CloneSource()
		if err := demand.Validate(); err != nil {
			return nil, err
		}
		sc.Workload.Channels = demand.NumChannels()
	} else {
		demand = sc.Workload.Source()
	}
	if sc.UplinkRatio > 0 {
		up, err := workload.UplinkForRatio(sc.Channel.PlaybackRate, sc.UplinkRatio)
		if err != nil {
			return nil, err
		}
		sc.Workload.PeerUplink = up
	}
	transfer, err := sc.JumpPrior()
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{
		Mode:       sc.Mode,
		Channel:    sc.Channel,
		Workload:   sc.Workload,
		Source:     demand,
		OnArrivals: sc.OnArrivals,
		Pacer:      sc.Pacer,
		Transfer:   transfer,
		Scheduling: sc.Scheduling,
		Workers:    sc.Workers,
		Seed:       sc.Seed,
	}
	var s sim.Backend
	switch sc.Fidelity {
	case 0, modes.FidelityEvent:
		s, err = sim.New(simCfg)
	case modes.FidelityFluid:
		s, err = fluid.New(fluid.Config{Sim: simCfg})
	default:
		err = fmt.Errorf("stack: invalid fidelity %d", int(sc.Fidelity))
	}
	if err != nil {
		return nil, err
	}
	vmSpecs := sc.VMClusters
	if vmSpecs == nil {
		vmSpecs = cloud.DefaultVMClusters()
	}
	nfsSpecs := sc.NFSClusters
	if nfsSpecs == nil {
		nfsSpecs = cloud.DefaultNFSClusters()
	}
	cl, err := cloud.New(vmSpecs, nfsSpecs, cloud.WithPricing(sc.Pricing))
	if err != nil {
		return nil, err
	}
	broker, err := cloud.NewBroker(cl)
	if err != nil {
		return nil, err
	}
	ctl, err := core.NewController(s, cl, broker, core.Options{
		IntervalSeconds:      sc.IntervalSeconds,
		VMBudgetPerHour:      sc.VMBudget,
		StorageBudgetPerHour: sc.StorageBudget,
		FallbackTransfer:     transfer,
		ApplyBootLatency:     true,
		// The live overlay lags the equilibrium ownership model, so trust
		// 70% of the analytic peer supply and keep 20% provisioning slack
		// — the reserved ≈ 1.5–2× used margin visible in the paper's Fig. 4.
		PeerSupplyTrust:   0.7,
		ProvisionHeadroom: 1.2,
		Predictor:         sc.Predictor,
		Policy:            sc.Policy,
		// Oracle policies plan on the true arrival intensity of the
		// demand source — parametric or trace alike; the feed is always
		// wired, and only policies that declare Oracle() == true ever
		// consult it. It closes over the run's private source copy, so
		// concurrent runs share no state.
		TrueRates: func(channel int, start, end float64) float64 {
			r, err := demand.MeanRate(channel, start, end)
			if err != nil {
				return 0
			}
			return r
		},
		OnInterval:     sc.OnInterval,
		DiscardHistory: sc.DiscardRecords,
		// The control plane shards per-channel work over the same worker
		// budget as the engines; results are worker-count-invariant on
		// both planes.
		Workers: sc.Workers,
	})
	if err != nil {
		return nil, err
	}

	// Inject the fault plan (and the pricing plan's spot-interruption
	// process) at this run's control barriers. Single-region runs realize
	// region outages as full blackouts — there is nowhere to fail over to.
	// A geo region's schedule arrives with its outages already stripped:
	// the deployment realizes them as failover instead.
	target := fault.Target{
		Backend:         s,
		Cloud:           cl,
		Controller:      ctl,
		Region:          region.Name,
		IntervalSeconds: sc.IntervalSeconds,
		Seed:            sc.Seed + region.FaultSeedOffset,
	}
	if err := fault.Attach(target, sc.Faults); err != nil {
		return nil, err
	}
	if err := fault.AttachBlackouts(target, sc.Faults); err != nil {
		return nil, err
	}

	sys := &System{Scenario: sc, Sim: s, Cloud: cl, Broker: broker, Controller: ctl, Transfer: transfer}
	inputs := make([]core.ChannelInput, s.Channels())
	for c := range inputs {
		rate, err := demand.Rate(c, 0)
		if err != nil {
			return nil, err
		}
		inputs[c] = core.ChannelInput{
			ArrivalRate: rate,
			Transfer:    transfer,
			MeanUplink:  sc.Workload.PeerUplink.Mean(),
		}
	}
	ctl.Provision(0, inputs)
	if !sc.StaticProvisioning {
		if err := ctl.Start(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}
