// Package stack assembles one CloudMedia deployment — demand source,
// engine (per-viewer event or aggregate fluid), cloud, broker, and
// provisioning controller — from a Scenario, and bootstraps it from the
// analytic t=0 estimates of Sec. V-B. It is the single stack builder:
// the experiment harness builds every single-region run through it, and
// internal/geo builds each region of a multi-region deployment through
// it. System.Run is the single run loop of a single-region run.
package stack

import (
	"context"
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
// one unit of workload scale buys under DefaultSpec's session length
// (the "scale 1 targets ~250 concurrent viewers" contract of the public
// API). WithViewerScale converts absolute viewer targets through it.
const ViewersPerScale = 250

// BaseRateForViewers returns the aggregate base arrival rate that targets
// the given steady-state concurrent viewer count under DefaultSpec's
// session length — the absolute counterpart of the relative scale knob
// (DefaultSpec uses 0.6 users/s per unit of scale).
func BaseRateForViewers(viewers float64) float64 {
	return 0.6 * viewers / ViewersPerScale
}

// Spec bundles every knob a user sets for one run: the single scenario
// declaration that pkg/simulate embeds in its public Scenario, and that
// the experiment harness and geo build from.
type Spec struct {
	// Mode is the architecture under test: client-server, p2p (the
	// bootstrap rental held statically), or cloud-assisted.
	Mode modes.Mode
	// Fidelity selects the simulation engine: zero or FidelityEvent runs
	// the per-viewer discrete-event simulator, FidelityFluid the
	// aggregate cohort integrator whose state is O(channels × chunks)
	// regardless of crowd size — the backend for million-viewer runs.
	Fidelity modes.Fidelity
	// Channel holds the per-channel parameters (channels are uniform, as
	// in the paper).
	Channel queueing.Config
	// Workload drives the arrival trace.
	Workload workload.Params
	// Source, when non-nil, overrides the demand side of the workload
	// with an arbitrary arrival-intensity source — most usefully a
	// recorded or generated trace. The channel count then follows the
	// source; Workload keeps supplying the behavioural parameters (VCR
	// jumps, peer uplinks), and oracle policies plan on the source's true
	// rates.
	Source workload.Source
	// Hours is the simulated duration.
	Hours float64
	// IntervalSeconds is the provisioning period T; 0 means hourly.
	IntervalSeconds float64
	// VMBudget is B_M in $/hour (the paper uses 100).
	VMBudget float64
	// StorageBudget is B_S in $/hour (the paper uses 1).
	StorageBudget float64
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// SampleSeconds is the measurement sampling period; 0 means 900.
	SampleSeconds float64
	// UplinkRatio, if > 0, rescales peer uplinks so their mean is
	// ratio × the streaming rate (the Fig. 11 sweep).
	UplinkRatio float64
	// Predictor overrides the controller's arrival-rate forecaster; nil
	// uses the paper's last-interval rule.
	Predictor core.Predictor
	// Policy selects the provisioning policy (how predicted demand turns
	// into rental plans); nil uses Greedy, the paper's heuristic.
	Policy provision.Policy
	// Pricing selects the cloud billing plan; the zero value is pure
	// on-demand, the paper's literal pricing.
	Pricing cloud.PricingPlan
	// Faults is the declarative failure plan injected at the run's control
	// barriers: spot preemptions and capacity degradations apply directly;
	// region outages degenerate to full blackouts in a single-region run
	// (the "regional" experiment realizes them as cross-region failover
	// instead). nil injects nothing — though a spot Pricing plan with an
	// interruption rate still drives its own seeded preemption process.
	Faults *fault.Schedule
	// Scheduling overrides the P2P uplink allocation policy; zero uses
	// rarest-first, the paper's scheme.
	Scheduling sim.PeerScheduling
	// Workers bounds the worker pool both engines use to step channels in
	// parallel between control barriers; 0 means GOMAXPROCS. Results are
	// bit-identical for every value — it is purely a throughput knob.
	Workers int
	// VMClusters and NFSClusters override the rental catalogs; nil or
	// empty uses the paper's Table II/III defaults. Regional price lists are the
	// interesting knob (see examples/multiregion).
	VMClusters  []cloud.VMClusterSpec
	NFSClusters []cloud.NFSClusterSpec
}

// Scenario is a Spec plus the run-time hooks a caller wires into one
// Build: the observers and the pacer are functions, not settings.
type Scenario struct {
	Spec
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
}

// DefaultSpec returns the reduced-scale counterpart of the paper's
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
func DefaultSpec(mode modes.Mode, scale float64) Spec {
	if scale <= 0 {
		scale = 1
	}
	wl := workload.Default()
	wl.Channels = 6
	wl.ZipfExponent = 0.8
	wl.BaseArrivalRate = 0.6 * scale // ≈300·scale concurrent at mean session ≈7 min
	wl.JumpMeanSeconds = 225         // 3 chunks, preserving the paper's jump:chunk ratio
	return Spec{
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

// Validate reports the first violated scenario invariant. A zero
// interval, sampling period or budget is valid: Build applies the
// defaults. Every number must be finite: a NaN would slip past the sign
// checks and stall or silently zero the run.
func (sc Spec) Validate() error {
	if _, _, err := modes.Engine(sc.Mode); err != nil {
		return err
	}
	if sc.Fidelity != 0 && sc.Fidelity != modes.FidelityEvent && sc.Fidelity != modes.FidelityFluid {
		return fmt.Errorf("invalid fidelity %d", int(sc.Fidelity))
	}
	if sc.SampleSeconds < 0 {
		return fmt.Errorf("negative sampling period %v s", sc.SampleSeconds)
	}
	if err := sc.Channel.Validate(); err != nil {
		return err
	}
	if err := sc.Workload.Validate(); err != nil {
		return err
	}
	if sc.Source != nil {
		if err := sc.Source.Validate(); err != nil {
			return err
		}
		if sc.Source.NumChannels() <= 0 {
			return fmt.Errorf("demand source has no channels")
		}
	}
	if err := sc.Pricing.Validate(); err != nil {
		return err
	}
	if err := sc.Faults.Validate(); err != nil {
		return err
	}
	if v, ok := sc.Policy.(interface{ Validate() error }); ok && sc.Policy != nil {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if v, ok := sc.Predictor.(interface{ Validate() error }); ok && sc.Predictor != nil {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if sc.Workers < 0 {
		return fmt.Errorf("negative workers %d", sc.Workers)
	}
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

// jumpPrior returns the analytic transfer-matrix prior for the
// scenario's channel and workload: sequential viewing with 90% per-chunk
// retention plus VCR jumps, whose per-chunk probability is T₀ over the
// mean jump interval (capped at 1).
func (sc Spec) jumpPrior() (queueing.TransferMatrix, error) {
	jump := sc.Channel.ChunkSeconds / sc.Workload.JumpMeanSeconds
	if jump > 1 {
		jump = 1
	}
	return viewing.SequentialWithJumps(sc.Channel.Chunks, 0.9, jump)
}

// Resolve returns the Spec with its zero-means-default values filled
// in: hourly provisioning, 900 s sampling, B_M = $100/h, B_S = $1/h, the
// paper's Table II/III catalogs, the paper's last-interval forecast and
// the Greedy policy. It is the one place these defaults are written;
// Build resolves every Spec through it, and so does the root package's
// NewPipeline. A zero Scheduling is left to the engines
// (sim.Config.Resolve).
func Resolve(sc Spec) Spec {
	if sc.IntervalSeconds == 0 {
		sc.IntervalSeconds = 3600
	}
	if sc.SampleSeconds == 0 {
		sc.SampleSeconds = 900
	}
	if sc.VMBudget == 0 {
		sc.VMBudget = 100
	}
	if sc.StorageBudget == 0 {
		sc.StorageBudget = 1
	}
	// An empty catalog is unset too, as it is after Scenario.Clone.
	if len(sc.VMClusters) == 0 {
		sc.VMClusters = cloud.DefaultVMClusters()
	}
	if len(sc.NFSClusters) == 0 {
		sc.NFSClusters = cloud.DefaultNFSClusters()
	}
	if sc.Predictor == nil {
		sc.Predictor = core.LastInterval{}
	}
	if sc.Policy == nil {
		sc.Policy = provision.Greedy{}
	}
	return sc
}

// RegionID identifies one regional stack of a multi-region deployment.
// The zero value is the single-region stack.
type RegionID struct {
	// Name scopes region-tagged fault events: an event naming another
	// region skips this stack. "" applies only the global events.
	Name string
	// FaultSeedOffset is added to Spec.Seed to seed the stack's
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
	engineMode, static, err := modes.Engine(sc.Mode)
	if err != nil {
		return nil, err
	}
	// System.Scenario carries the resolved values.
	sc.Spec = Resolve(sc.Spec)
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
	transfer, err := sc.jumpPrior()
	if err != nil {
		return nil, err
	}
	simCfg := sim.Config{
		Mode:       engineMode,
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
	if sc.Fidelity == modes.FidelityFluid {
		s, err = fluid.New(simCfg)
	} else {
		s, err = sim.New(simCfg)
	}
	if err != nil {
		return nil, err
	}
	cl, err := cloud.New(sc.VMClusters, sc.NFSClusters, cloud.WithPricing(sc.Pricing))
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
		Predictor:            sc.Predictor,
		Policy:               sc.Policy,
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
		OnInterval: sc.OnInterval,
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
	// P2P holds the bootstrap rental for the whole run — the static
	// baseline the paper's dynamic scheme improves on.
	if !static {
		if err := ctl.Start(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// Stop is one instant at which System.Run hands the settled system to
// its observer. Sample marks the sampling grid (every SampleSeconds) or
// the end of the run; Hour marks a whole simulated hour.
type Stop struct {
	Time         float64
	Sample, Hour bool
}

// Run drives the system for Spec.Hours of simulated time. It is the one
// run loop: simulate.Scenario.Run and the figure harness are its
// callers. Each stop is the earliest of the next sample, the next whole
// hour and the end of the run, so a sampling period that divides the
// hour stops only on its own grid. At each stop Run advances the engine
// (Sim.RunUntil), commits the cloud's billing accrual (Cloud.Advance),
// then calls observe. The context is checked between stops; on
// cancellation Run returns its error with the engine and the bill
// settled at the last stop.
func (sys *System) Run(ctx context.Context, observe func(Stop)) error {
	end := sys.Scenario.Hours * 3600
	period := sys.Scenario.SampleSeconds
	nextSample, nextHour := period, 3600.0
	var err error
	for now := 0.0; now < end; {
		if err = ctx.Err(); err != nil {
			break
		}
		now = min(nextSample, nextHour, end)
		stop := Stop{Time: now, Sample: now == nextSample || now == end, Hour: now == nextHour}
		sys.Sim.RunUntil(now)
		sys.Cloud.Advance(now)
		observe(stop)
		if now == nextSample {
			nextSample += period
		}
		if stop.Hour {
			nextHour += 3600
		}
	}
	sys.Cloud.Advance(sys.Sim.Now())
	return err
}
