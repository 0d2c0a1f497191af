package core

import (
	"fmt"
	"sort"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
)

// Options configures the provisioning controller.
type Options struct {
	// IntervalSeconds is T, the provisioning period. Defaults to 3600 (the
	// hourly rental granularity of Sec. V-B).
	IntervalSeconds float64
	// VMBudgetPerHour is B_M. The paper uses $100/hour.
	VMBudgetPerHour float64
	// StorageBudgetPerHour is B_S. The paper uses $1/hour.
	StorageBudgetPerHour float64
	// FallbackTransfer seeds transfer-matrix rows that saw no traffic in an
	// interval. Usually the analytic prior (viewing.PaperDefault).
	FallbackTransfer queueing.TransferMatrix
	// MaxServersPerChunk bounds the queueing search; ≤0 uses the default.
	MaxServersPerChunk int
	// ApplyBootLatency delays capacity increases by the cloud's VM boot
	// latency, modelling that freshly requested VMs serve only once booted.
	ApplyBootLatency bool
	// PeerSupplyTrust discounts the analytic peer contribution before
	// computing the cloud residual: Δ = capacity − trust·Γ. The analysis
	// assumes equilibrium chunk ownership; trusting it fully leaves no
	// margin when the live overlay lags the model (channel churn, cold
	// chunks). 0 means 1 (full trust).
	PeerSupplyTrust float64
	// ProvisionHeadroom multiplies every chunk's cloud demand before
	// planning, the over-provisioning slack visible in the paper's Fig. 4
	// (reserved ≈ 1.5–2× used). 0 means 1 (no headroom).
	ProvisionHeadroom float64
	// Predictor forecasts next-interval arrival rates from the observed
	// history. nil uses LastInterval, the paper's rule.
	Predictor Predictor
	// Policy turns predicted demand into rental plans each interval. nil
	// uses provision.Greedy, the paper's heuristic with infeasibility
	// scaling.
	Policy provision.Policy
	// TrueRates, when non-nil, exposes the workload trace's true mean
	// arrival rate for a channel over [start, end) — the realized-arrival
	// source oracle policies (Policy.Oracle() == true) plan on. Policies
	// that do not ask for it never see it.
	TrueRates func(channel int, start, end float64) float64
	// HistoryLimit bounds the per-channel rate history kept for the
	// predictor; 0 means 168 (a week of hourly intervals).
	HistoryLimit int
	// StorageChangeThreshold implements the Sec. V-B trigger: the NFS
	// storage rental is recomputed only when total demand has moved by more
	// than this fraction since the last storage plan (or on the first
	// round). 0 recomputes every interval.
	StorageChangeThreshold float64
	// OnInterval, when non-nil, receives every IntervalRecord as soon as
	// its provisioning round completes. It runs on the simulator goroutine,
	// so it must not call back into the simulator.
	OnInterval func(IntervalRecord)
	// DiscardHistory stops the controller from accumulating records in
	// memory; long streaming runs set it together with OnInterval so memory
	// stays bounded by one interval.
	DiscardHistory bool
	// Workers bounds the pool that shards the per-channel control-plane
	// work — measurement snapshots, demand derivation, and lookahead
	// forecasting — mirroring sim.Config.Workers on the engines. 0 uses
	// min(GOMAXPROCS, channels); 1 runs serially. Channels are derived
	// independently and every cross-channel total is reduced serially in
	// ascending channel order afterwards, so results are bit-identical
	// for every worker count. TrueRates and Predictor implementations
	// must tolerate concurrent calls for different channels (all in-tree
	// ones are pure reads over per-channel state).
	Workers int
}

func (o *Options) applyDefaults() {
	if o.IntervalSeconds == 0 {
		o.IntervalSeconds = 3600
	}
	if o.VMBudgetPerHour == 0 {
		o.VMBudgetPerHour = 100
	}
	if o.StorageBudgetPerHour == 0 {
		o.StorageBudgetPerHour = 1
	}
	if o.PeerSupplyTrust == 0 {
		o.PeerSupplyTrust = 1
	}
	if o.ProvisionHeadroom == 0 {
		o.ProvisionHeadroom = 1
	}
	if o.Predictor == nil {
		o.Predictor = LastInterval{}
	}
	if o.Policy == nil {
		o.Policy = provision.Greedy{}
	}
	if o.HistoryLimit == 0 {
		o.HistoryLimit = 168
	}
}

// IntervalRecord captures one provisioning round for later analysis; the
// experiment harness turns these into the paper's figures.
type IntervalRecord struct {
	Time             float64   // when the round ran, seconds
	ArrivalRates     []float64 // per-channel Λ estimates (or true rates, for oracle policies)
	DemandPerChannel []float64 // per-channel Σ Δ, bytes/s
	TotalDemand      float64   // Σ over channels, bytes/s
	TotalPeerSupply  float64   // Σ Γ, bytes/s
	VMPlan           provision.VMPlan
	StoragePlan      provision.StoragePlan
	// DemandScale < 1 records that the budget was infeasible and demand was
	// scaled down to fit (the paper's "increase your budget" signal).
	DemandScale float64
	// DemandErrors counts the channels whose demand analysis failed this
	// round; each was planned at zero demand. The round's first error, in
	// channel order, lands in the cloud ledger's diagnostics.
	DemandErrors int
	// PlanErr records a round whose VM planning failed outright (no plan
	// was applied; the previous rental stays in force).
	PlanErr string
	// StorageErr records a round whose storage planning failed; the
	// previous storage plan stays applied. Both errors also land in the
	// cloud ledger's diagnostics.
	StorageErr string
	// Cost is the ledger bill accrued over the interval that ended at
	// Time, split by pricing tier. The bootstrap (t=0) record carries only
	// the first reservation term's upfront fee, if any.
	Cost cloud.LedgerTotals
}

// Controller wires the measurement feed, the analysis, the provisioning
// policy, the broker, and the running system together. It talks to the
// simulation only through the sim.Backend seam, so the same control loop
// drives both the per-viewer discrete-event engine and the aggregate
// fluid engine; it plans only through the provision.Policy seam, so the
// same measurement loop drives greedy, lookahead, oracle, and static
// baselines.
type Controller struct {
	sim     sim.Backend
	broker  *cloud.Broker
	cl      *cloud.Cloud
	opts    Options
	planner provision.Planner
	workers int // resolved Options.Workers, see forEachChannel

	records     []IntervalRecord
	planCaps    map[[2]int]float64 // last planned per-chunk capacity targets, unscaled
	lastCaps    map[[2]int]float64 // last applied per-chunk capacities (plan × fault factors)
	rateHistory [][]float64        // per-channel observed arrival rates, oldest first

	// capFactor is the persistent capacity multiplier fault injection's
	// capacity-degradation events set (1 = healthy); preemptScale is the
	// transient survivor fraction after a spot preemption, reset when the
	// next plan re-rents the lost VMs. Both stay exactly 1 on healthy
	// runs, so plan×1×1 is bit-identical to the unscaled plan and no
	// golden moves.
	capFactor    float64
	preemptScale float64

	// Per-round scratch, reused across intervals so the steady control
	// path stops allocating: the measurement inputs, the derived
	// per-channel demands, and the flattened chunk-demand lists (current
	// and per lookahead step) handed to the planner. Safe because nothing
	// downstream retains them — records get their own slices, planners
	// copy before sorting, and apply reads synchronously within the round.
	scratchInputs  []ChannelInput
	scratchDemands []ChannelDemand
	scratchErrs    []error
	scratchFlat    []provision.ChunkDemand
	scratchFuture  [][]provision.ChunkDemand // per lookahead step, see flattenFuture
}

// NewController builds a controller for a simulation backend and a cloud
// reached through its broker.
func NewController(s sim.Backend, cl *cloud.Cloud, broker *cloud.Broker, opts Options) (*Controller, error) {
	if s == nil || cl == nil || broker == nil {
		return nil, fmt.Errorf("core: nil simulator, cloud, or broker")
	}
	opts.applyDefaults()
	if opts.IntervalSeconds <= 0 {
		return nil, fmt.Errorf("core: non-positive interval %v", opts.IntervalSeconds)
	}
	if opts.FallbackTransfer != nil {
		if err := opts.FallbackTransfer.Validate(); err != nil {
			return nil, fmt.Errorf("core: fallback transfer: %w", err)
		}
		if opts.FallbackTransfer.Size() != s.ChannelConfig().Chunks {
			return nil, fmt.Errorf("core: fallback transfer size %d != chunks %d",
				opts.FallbackTransfer.Size(), s.ChannelConfig().Chunks)
		}
	}
	if v, ok := opts.Predictor.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	if v, ok := opts.Policy.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	return &Controller{
		sim:          s,
		broker:       broker,
		cl:           cl,
		opts:         opts,
		planner:      opts.Policy.NewPlanner(),
		workers:      sim.EffectiveWorkers(opts.Workers, s.Channels()),
		planCaps:     make(map[[2]int]float64),
		lastCaps:     make(map[[2]int]float64),
		rateHistory:  make([][]float64, s.Channels()),
		capFactor:    1,
		preemptScale: 1,
	}, nil
}

// forEachChannel runs fn for every channel index, sharding across the
// controller's worker pool. fn must touch only channel-ch state (the
// per-channel estimator feed, rateHistory[ch], its own slots of the
// scratch slices) plus read-only configuration; every cross-channel
// reduction happens serially after the fan-out, in ascending channel
// order, so rounds are bit-identical for any worker count. The serial
// branch (effective workers == 1) runs on the calling goroutine.
func (c *Controller) forEachChannel(n int, fn func(ch int)) {
	if c.workers <= 1 || n <= 1 {
		for ch := 0; ch < n; ch++ {
			fn(ch)
		}
		return
	}
	sim.FanOut(c.workers, n, fn)
}

// Records returns the per-interval history (shared slice internals are not
// exposed: a copy is returned).
func (c *Controller) Records() []IntervalRecord {
	out := make([]IntervalRecord, len(c.records))
	copy(out, c.records)
	return out
}

// Start schedules the periodic provisioning rounds, beginning one interval
// from now (statistics need a full interval to accumulate). Bootstrap
// provisioning for interval 0 should be applied first via Provision.
func (c *Controller) Start() error {
	return c.sim.ScheduleRepeating(c.opts.IntervalSeconds, c.opts.IntervalSeconds, func(now float64) {
		c.runInterval(now)
	})
}

// runInterval executes one provisioning round using the statistics the
// tracker accumulated since the previous round. The per-channel snapshot
// — estimator read, forecast, matrix estimate, uplink probe, reset — is
// sharded over the worker pool: each shard touches only its channel's
// feed, history, and inputs slot, and the round runs at a control
// barrier with no channel-stepping workers active, so the fan-out
// observes a settled engine and writes disjoint state.
func (c *Controller) runInterval(now float64) {
	n := c.sim.Channels()
	if cap(c.scratchInputs) < n {
		c.scratchInputs = make([]ChannelInput, n)
	}
	inputs := c.scratchInputs[:n]
	c.forEachChannel(n, func(ch int) {
		est, err := c.sim.Estimator(ch)
		if err != nil {
			return // unreachable: channel index from range
		}
		rate, err := est.ArrivalRate(c.opts.IntervalSeconds)
		if err != nil {
			rate = 0
		}
		rate = c.forecast(ch, rate)
		matrix, err := est.Matrix(c.opts.FallbackTransfer)
		if err != nil || matrix.Size() == 0 {
			matrix = c.opts.FallbackTransfer
		}
		uplink, err := c.sim.MeanUplink(ch)
		if err != nil {
			uplink = 0
		}
		inputs[ch] = ChannelInput{ArrivalRate: rate, Transfer: matrix, MeanUplink: uplink}
		est.Reset()
	})
	c.Provision(now, inputs)
}

// forecast appends the observation to the channel's history and returns
// the predictor's rate for the next interval.
func (c *Controller) forecast(channel int, observed float64) float64 {
	h := append(c.rateHistory[channel], observed)
	if len(h) > c.opts.HistoryLimit {
		h = h[len(h)-c.opts.HistoryLimit:]
	}
	c.rateHistory[channel] = h
	return c.opts.Predictor.Predict(h)
}

// oracle reports whether this run plans on true arrival rates: the policy
// asked for them and a source is configured.
func (c *Controller) oracle() bool {
	return c.opts.Policy.Oracle() && c.opts.TrueRates != nil
}

// wantsFuture reports whether the planner still consumes forecasts this
// round; planners that don't implement provision.FutureDemander always do.
func (c *Controller) wantsFuture() bool {
	if fd, ok := c.planner.(provision.FutureDemander); ok {
		return fd.NeedsFuture()
	}
	return true
}

// deriveOne runs the demand analysis for one channel and applies the
// peer-supply trust and provisioning headroom, yielding the per-chunk
// cloud demand the policy plans on. A channel whose analysis fails (e.g.
// degenerate estimated matrix, or a chunk needing more servers than the
// search bound) gets zero demand rather than aborting the round; the
// error is returned for the caller to count and report.
func (c *Controller) deriveOne(cfg queueing.Config, in ChannelInput, p2pMode bool) (ChannelDemand, error) {
	if in.Transfer == nil {
		in.Transfer = c.opts.FallbackTransfer
	}
	d, err := DeriveDemand(cfg, in, p2pMode, c.opts.MaxServersPerChunk)
	if err != nil {
		return ChannelDemand{
			CloudDemand: make([]float64, cfg.Chunks),
			PeerSupply:  make([]float64, cfg.Chunks),
		}, err
	}
	// Apply peer-supply trust and provisioning headroom against the full
	// equilibrium capacity (Δ = capacity − trust·Γ, then slack).
	for i := range d.CloudDemand {
		delta := d.Equilibrium.Capacity[i] - c.opts.PeerSupplyTrust*d.PeerSupply[i]
		if delta < 0 {
			delta = 0
		}
		d.CloudDemand[i] = delta * c.opts.ProvisionHeadroom
	}
	return d, nil
}

// futureDemands forecasts per-chunk demand for the k intervals after the
// upcoming one: from the true trace rates for oracle policies, otherwise
// by iterating the predictor on its own forecasts. Transfer matrices and
// uplinks are held at their current estimates, so a step whose forecast
// rate matches the previous step's reuses that step's demand analysis —
// with a fixed-point predictor (LastInterval, the default) the whole
// lookahead costs one analysis, not k+1. current and currentRates are
// this round's derived demands and the rates that produced them.
//
// Each channel's forecast chain (history → predict → derive, step by
// step) depends only on that channel's own state, so the lookahead is
// sharded channel-outer over the worker pool — the demand plane's
// controller-side fan-out — filling the steps×channels demand matrix.
// Only the per-step flattening reads across channels, and it runs
// serially afterwards in step then channel order, exactly the order the
// old step-outer loop flattened in, so plans are bit-identical for any
// worker count.
func (c *Controller) futureDemands(cfg queueing.Config, inputs []ChannelInput, current []ChannelDemand, currentRates []float64, p2pMode bool, now float64, k int) [][]provision.ChunkDemand {
	T := c.opts.IntervalSeconds
	oracle := c.oracle()
	steps := make([][]ChannelDemand, k)
	for step := range steps {
		steps[step] = make([]ChannelDemand, len(inputs))
	}
	c.forEachChannel(len(inputs), func(ch int) {
		in := inputs[ch]
		var hist []float64
		if !oracle {
			hist = append(append([]float64(nil), c.rateHistory[ch]...), in.ArrivalRate)
		}
		prev, prevRate := current[ch], currentRates[ch]
		for step := 1; step <= k; step++ {
			if oracle {
				in.ArrivalRate = c.opts.TrueRates(ch, now+float64(step)*T, now+float64(step+1)*T)
			} else {
				in.ArrivalRate = c.opts.Predictor.Predict(hist)
				hist = append(hist, in.ArrivalRate)
			}
			if in.ArrivalRate == prevRate {
				steps[step-1][ch] = prev
			} else {
				//cloudmedia:allow noloss -- a failed forecast step plans at zero demand like a failed current round; DemandErrors counts the current round's failures
				steps[step-1][ch], _ = c.deriveOne(cfg, in, p2pMode)
			}
			prev, prevRate = steps[step-1][ch], in.ArrivalRate
		}
	})
	return c.flattenFuture(steps)
}

// flattenFuture flattens each lookahead step into the controller's
// per-step scratch, growing it only when the horizon or the demand set
// outgrows it, so a steady lookahead round allocates nothing here. Safe
// because planners do not retain PlanRequest.Future: maxDemands copies
// the per-chunk maxima out of it.
func (c *Controller) flattenFuture(steps [][]ChannelDemand) [][]provision.ChunkDemand {
	if len(c.scratchFuture) < len(steps) {
		c.scratchFuture = append(c.scratchFuture, make([][]provision.ChunkDemand, len(steps)-len(c.scratchFuture))...)
	}
	future := c.scratchFuture[:len(steps)]
	for step := range future {
		future[step] = FlattenDemandsInto(future[step], steps[step])
	}
	return future
}

// reduceDemands folds the sharded per-channel demands and analysis errors
// into the record's cross-channel totals. It runs serially after the
// derive fan-out, in ascending channel order with the per-chunk
// interleaving the old fused loop used (DemandPerChannel[ch] and
// TotalDemand advance together, chunk by chunk, then the peer supply), so
// the canonical accumulation order — and with it every golden — is
// unchanged by the sharding.
//
//cloudmedia:hotpath
func (c *Controller) reduceDemands(rec *IntervalRecord, demands []ChannelDemand, errs []error) {
	for ch := range demands {
		if errs[ch] != nil {
			rec.DemandErrors++
		}
		d := demands[ch]
		for _, delta := range d.CloudDemand {
			rec.DemandPerChannel[ch] += delta
			rec.TotalDemand += delta
		}
		for _, g := range d.PeerSupply {
			rec.TotalPeerSupply += g
		}
	}
}

// Provision derives demand from the given per-channel inputs, asks the
// provisioning policy for a plan, and applies it to the cloud and the
// running system. It is also the bootstrap entry point: experiments call
// it at t=0 with analytic estimates.
func (c *Controller) Provision(now float64, inputs []ChannelInput) {
	cfg := c.sim.ChannelConfig()
	p2pMode := c.sim.Mode() == sim.P2P
	oracle := c.oracle()

	rec := IntervalRecord{
		Time:             now,
		ArrivalRates:     make([]float64, len(inputs)),
		DemandPerChannel: make([]float64, len(inputs)),
		DemandScale:      1,
	}
	if cap(c.scratchDemands) < len(inputs) {
		c.scratchDemands = make([]ChannelDemand, len(inputs))
		c.scratchErrs = make([]error, len(inputs))
	}
	// Shard the demand derivation per channel: each shard reads its own
	// input (plus the pure TrueRates/analysis paths) and writes only its
	// slots of demands, errs and rec.ArrivalRates. The cross-channel
	// totals are reduced afterwards, serially.
	demands := c.scratchDemands[:len(inputs)]
	errs := c.scratchErrs[:len(inputs)]
	c.forEachChannel(len(inputs), func(ch int) {
		in := inputs[ch]
		if oracle {
			in.ArrivalRate = c.opts.TrueRates(ch, now, now+c.opts.IntervalSeconds)
		}
		rec.ArrivalRates[ch] = in.ArrivalRate
		demands[ch], errs[ch] = c.deriveOne(cfg, in, p2pMode)
	})
	c.reduceDemands(&rec, demands, errs)
	if rec.DemandErrors > 0 {
		c.noteDemandErrors(now, errs, rec.DemandErrors)
	}

	catalog := c.broker.Negotiate()
	vmSpecs := make([]cloud.VMClusterSpec, 0, len(catalog.VMClusters))
	for _, a := range catalog.VMClusters {
		vmSpecs = append(vmSpecs, a.Spec)
	}
	nfsSpecs := make([]cloud.NFSClusterSpec, 0, len(catalog.NFSClusters))
	for _, a := range catalog.NFSClusters {
		nfsSpecs = append(nfsSpecs, a.Spec)
	}

	c.scratchFlat = FlattenDemandsInto(c.scratchFlat, demands)
	req := provision.PlanRequest{
		Time:                   now,
		IntervalSeconds:        c.opts.IntervalSeconds,
		Demands:                c.scratchFlat,
		VMBandwidth:            catalog.VMBandwidth,
		ChunkBytes:             cfg.ChunkBytes(),
		VMClusters:             vmSpecs,
		NFSClusters:            nfsSpecs,
		VMBudgetPerHour:        c.opts.VMBudgetPerHour,
		StorageBudgetPerHour:   c.opts.StorageBudgetPerHour,
		StorageChangeThreshold: c.opts.StorageChangeThreshold,
		Pricing:                c.cl.Ledger().Plan(),
	}
	if k := c.opts.Policy.Lookahead(); k > 0 && c.wantsFuture() {
		req.Future = c.futureDemands(cfg, inputs, demands, rec.ArrivalRates, p2pMode, now, k)
	}

	res, err := c.planner.Plan(req)
	if err != nil {
		// Planning failed outright (no clusters, demand unservable even
		// fully scaled down, …): record the empty round and keep last
		// interval's rental.
		rec.PlanErr = err.Error()
		c.cl.Ledger().Notef(now, "%s policy: VM plan failed: %v", c.opts.Policy.Name(), err)
		c.finish(now, rec)
		return
	}
	rec.VMPlan = res.VMPlan
	rec.DemandScale = res.DemandScale
	rec.StoragePlan = res.StoragePlan
	if res.StorageErr != nil {
		rec.StorageErr = res.StorageErr.Error()
		c.cl.Ledger().Notef(now, "%s policy: storage plan failed, previous plan kept: %v",
			c.opts.Policy.Name(), res.StorageErr)
	}

	c.apply(now, res.VMPlan, res.StoragePlan, catalog.VMBandwidth, demands)
	c.finish(now, rec)
}

// noteDemandErrors writes the round's one ledger note for failed demand
// analyses, carrying the first error in channel order.
func (c *Controller) noteDemandErrors(now float64, errs []error, n int) {
	for ch, err := range errs {
		if err != nil {
			c.cl.Ledger().Notef(now, "demand analysis failed on %d of %d channels, planned at zero demand; first, channel %d: %v",
				n, len(errs), ch, err)
			return
		}
	}
}

// finish settles the bill for the interval that just ended, stamps it on
// the record, and delivers the record.
func (c *Controller) finish(now float64, rec IntervalRecord) {
	c.cl.Advance(now)
	rec.Cost = c.cl.Ledger().Checkpoint()
	c.record(rec)
}

// record delivers a finished round to the OnInterval subscriber and the
// in-memory history, honouring DiscardHistory.
func (c *Controller) record(rec IntervalRecord) {
	if c.opts.OnInterval != nil {
		c.opts.OnInterval(rec)
	}
	if !c.opts.DiscardHistory {
		c.records = append(c.records, rec)
	}
}

// apply submits the SLA reconfiguration and updates the per-chunk serving
// capacities in the running system.
func (c *Controller) apply(now float64, vmPlan provision.VMPlan, storagePlan provision.StoragePlan, vmBandwidth float64, demands []ChannelDemand) {
	req := cloud.Request{Time: now, VMTargets: map[string]int{}, StorageGB: map[string]float64{}}
	for _, spec := range c.cl.VMClusters() {
		req.VMTargets[spec.Name] = 0
	}
	for name, n := range vmPlan.RentalVMs() {
		req.VMTargets[name] = n
	}
	if storagePlan.GBPerCluster != nil {
		for _, spec := range c.cl.NFSClusters() {
			req.StorageGB[spec.Name] = storagePlan.GBPerCluster[spec.Name]
		}
	} else {
		req.StorageGB = nil
	}
	if err := c.broker.Submit(req); err != nil {
		// Capacity races are not fatal: the system keeps last interval's
		// allocation and tries again next interval.
		return
	}

	caps := vmPlan.CapacityPerChunk(vmBandwidth)
	delay := 0.0
	if c.opts.ApplyBootLatency {
		delay = c.cl.BootLatency()
	}
	// A fresh plan re-rents whatever a spot preemption killed, so the
	// transient survivor scale resets here; the persistent degradation
	// factor keeps applying until the fault clears it.
	c.preemptScale = 1
	for ch, d := range demands {
		for i := range d.CloudDemand {
			key := [2]int{ch, i}
			c.planCaps[key] = caps[key]
			target := caps[key] * c.capFactor
			if target > c.lastCaps[key] {
				// Increases wait for the new VMs to boot.
				c.setCapacityAt(now, delay, ch, i, target)
			} else {
				// Decreases take effect immediately (shutdown is fast).
				//cloudmedia:allow noloss -- channel/chunk come from the plan loop, which only visits valid indices
				_ = c.sim.SetCloudCapacity(ch, i, target)
			}
			c.lastCaps[key] = target
		}
	}
}

// SetCapacityFactor sets the persistent capacity multiplier — fault
// injection's capacity-degradation hook. The factor scales every applied
// chunk capacity (current and future plans) and holds until the next
// SetCapacityFactor call; the current capacities are rescaled immediately,
// in ascending (channel, chunk) order so the reapplication is
// worker-count-invariant. Must be called at a control barrier (from a
// scheduled callback or between RunUntil calls), like every backend
// interaction.
func (c *Controller) SetCapacityFactor(now, factor float64) error {
	if !(factor >= 0 && factor <= 1) { // NaN fails too
		return fmt.Errorf("core: capacity factor %v outside [0,1]", factor)
	}
	c.capFactor = factor
	c.reapplyCaps()
	return nil
}

// CapacityFactor returns the current persistent capacity multiplier.
func (c *Controller) CapacityFactor() float64 { return c.capFactor }

// ScaleCapacity multiplies the transient post-preemption capacity scale —
// fault injection's spot-preemption hook, called with the survivor
// fraction after Cloud.PreemptSpot removed the billed VMs. The scale
// compounds across preemptions within one interval and resets when the
// next provisioning round re-rents replacement capacity (which then boots
// through the normal latency path). Must be called at a control barrier.
func (c *Controller) ScaleCapacity(now, factor float64) error {
	if !(factor >= 0 && factor <= 1) { // NaN fails too
		return fmt.Errorf("core: capacity scale %v outside [0,1]", factor)
	}
	c.preemptScale *= factor
	c.reapplyCaps()
	return nil
}

// reapplyCaps pushes planCaps × capFactor × preemptScale into the running
// system, immediately: degraded or preempted capacity disappears at once,
// and a degradation clearing restores capacity that never stopped being
// rented (already-booted VMs), so no boot latency applies on either edge.
// Keys are applied in ascending (channel, chunk) order — planCaps is a
// map, and float-effect ordering must not depend on Go's randomized
// iteration.
func (c *Controller) reapplyCaps() {
	keys := make([][2]int, 0, len(c.planCaps))
	for key := range c.planCaps {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	f := c.capFactor * c.preemptScale
	for _, key := range keys {
		target := c.planCaps[key] * f
		//cloudmedia:allow noloss -- keys were recorded by apply from valid plan indices
		_ = c.sim.SetCloudCapacity(key[0], key[1], target)
		c.lastCaps[key] = target
	}
}

// setCapacityAt applies a capacity change after `delay` seconds.
func (c *Controller) setCapacityAt(now, delay float64, ch, chunk int, target float64) {
	if delay <= 0 {
		//cloudmedia:allow noloss -- channel/chunk validated by the caller's plan loop
		_ = c.sim.SetCloudCapacity(ch, chunk, target)
		return
	}
	//cloudmedia:allow noloss -- now+delay > now so ScheduleAt cannot fail
	_ = c.sim.ScheduleAt(now+delay, func(float64) {
		//cloudmedia:allow noloss -- channel/chunk validated by the caller's plan loop
		_ = c.sim.SetCloudCapacity(ch, chunk, target)
	})
}
