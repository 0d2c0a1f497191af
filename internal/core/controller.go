package core

import (
	"fmt"
	"slices"
	"strconv"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
)

// Options configures the provisioning controller. The stack builder
// resolves every zero-means-default value before it gets here, and
// NewController rejects one that arrives unresolved.
type Options struct {
	// IntervalSeconds is T, the provisioning period (Sec. V-B rents
	// hourly).
	IntervalSeconds float64
	// VMBudgetPerHour is B_M. The paper uses $100/hour.
	VMBudgetPerHour float64
	// StorageBudgetPerHour is B_S. The paper uses $1/hour.
	StorageBudgetPerHour float64
	// FallbackTransfer seeds transfer-matrix rows that saw no traffic in an
	// interval. Usually the analytic prior (viewing.PaperDefault).
	FallbackTransfer queueing.TransferMatrix
	// Predictor forecasts next-interval arrival rates from the observed
	// history; the paper's rule is LastInterval.
	Predictor Predictor
	// Policy turns predicted demand into rental plans each interval; the
	// paper's heuristic with infeasibility scaling is provision.Greedy.
	Policy provision.Policy
	// TrueRates, when non-nil, exposes the workload trace's true mean
	// arrival rate for a channel over [start, end) — the realized-arrival
	// source oracle policies (Policy.Oracle() == true) plan on. Policies
	// that do not ask for it never see it.
	TrueRates func(channel int, start, end float64) float64
	// OnInterval, when non-nil, receives every IntervalRecord as soon as
	// its provisioning round completes; it is the only way a round leaves
	// the controller, which keeps no history of its own. It runs on the
	// simulator goroutine, so it must not call back into the simulator.
	OnInterval func(IntervalRecord)
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

// The controller's run constants (see DESIGN.md, "Run constants").
const (
	// peerSupplyTrust discounts the analytic peer contribution before
	// computing the cloud residual: Δ = capacity − trust·Γ. The analysis
	// assumes equilibrium chunk ownership; trusting it fully leaves no
	// margin when the live overlay lags the model (channel churn, cold
	// chunks).
	peerSupplyTrust = 0.7
	// provisionHeadroom multiplies every chunk's cloud demand before
	// planning: the over-provisioning slack visible in the paper's Fig. 4
	// (reserved ≈ 1.5–2× used).
	provisionHeadroom = 1.2
	// historyLimit bounds the per-channel rate history kept for the
	// predictor: a week of hourly intervals.
	historyLimit = 168
)

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
	// round; each was planned at zero demand.
	DemandErrors int
	// DemandErr is the round's first demand-analysis error in channel
	// order, prefixed with its channel ("channel 3: …"); empty when
	// DemandErrors is 0. It and SubmitErr are left out of the JSON
	// encoding, which the report goldens pin byte for byte and which
	// already carries DemandErrors.
	DemandErr string `json:"-"`
	// PlanErr records a round whose VM planning failed outright (no plan
	// was applied; the previous rental stays in force).
	PlanErr string
	// StorageErr records a round whose storage planning failed; the
	// previous storage plan stays applied.
	StorageErr string
	// SubmitErr records a round whose SLA request the broker rejected;
	// the previous rental and chunk capacities stay in force.
	SubmitErr string `json:"-"`
	// Cost is the bill over the interval that ended at Time, split by
	// pricing tier. The bootstrap (t=0) record carries only
	// the first reservation term's upfront fee, if any.
	Cost cloud.LedgerTotals
}

// Snapshot is one periodic measurement of the running system, taken at
// every sample stop of a run and at its end. With IntervalRecord it is
// what a run records: pkg/simulate reports both, and the live metric
// store observes both.
type Snapshot struct {
	// Time is the simulated clock in seconds.
	Time float64
	// Quality is the fraction of viewers with no playback stall inside the
	// trailing quality window (Fig. 5's metric).
	Quality float64
	// PerChannelQuality splits Quality by channel (1 for empty channels).
	PerChannelQuality []float64
	// Users is the current viewer count; PerChannelUsers splits it.
	Users           int
	PerChannelUsers []int
	// ReservedMbps is the cloud capacity provisioned at this instant.
	ReservedMbps float64
	// CloudServedGB is the cumulative cloud traffic actually delivered
	// since the start of the run (the "used" curve of Fig. 4).
	CloudServedGB float64
	// VMCost and StorageCost are the catalog-price dollars since the
	// start of the run.
	VMCost      float64
	StorageCost float64
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
	workers int // resolved Options.Workers, see serial

	// vmSpecs and nfsSpecs are the cloud's catalog, read in NewController.
	// The catalog is fixed once cloud.New returns, so every round plans and
	// applies against these same specs, in registration order.
	vmSpecs  []cloud.VMClusterSpec
	nfsSpecs []cloud.NFSClusterSpec

	// planned holds the latest plan per chunk, and caps the booted
	// capacity before the fault factor, scaled by the spot preemptions
	// since; both flat at ch*Chunks+chunk. capChannels is how many
	// channels apply has recorded (0 before the first plan is applied).
	// factor is the product of the fault windows open now (1 = healthy),
	// and every chunk serves caps × factor, see serve.
	planned     []float64
	caps        []float64
	capChannels int
	factor      float64
	rateHistory [][]float64 // per-channel observed arrival rates, oldest first
	forecasts   []float64   // per channel: Predictor.Predict(rateHistory[ch]), see forecast

	// Per-round scratch, reused across intervals so the steady control
	// path stops allocating: the measurement inputs, the derived
	// per-channel demands and their storage (current round and per
	// lookahead step), and the flattened chunk-demand lists handed to the
	// planner. Safe because nothing downstream retains them — records
	// get their own slices, planners copy what they keep, and apply
	// reads synchronously within the round. See DESIGN.md, "Sharded
	// control plane".
	derivers       []deriver // one per worker, see serial
	scratchInputs  []ChannelInput
	scratchDemands []ChannelDemand
	scratchErrs    []error
	scratchOut     []float64         // current round's demand storage, see demandSlot
	scratchSteps   [][]ChannelDemand // lookahead step × channel
	scratchStepOut []float64         // the steps' demand storage
	scratchFlat    []provision.ChunkDemand
	scratchFuture  [][]provision.ChunkDemand // per lookahead step, see flattenFuture
	// freeRaises recycles the lists of delayed capacity raises, see apply.
	freeRaises [][]capRaise
}

// capRaise is one chunk-capacity increase waiting for its VMs to boot.
type capRaise struct {
	ch, chunk int
	target    float64
}

// NewController builds a controller for a simulation backend and a cloud,
// which it reaches through a broker of its own.
func NewController(s sim.Backend, cl *cloud.Cloud, opts Options) (*Controller, error) {
	if s == nil || cl == nil {
		return nil, fmt.Errorf("core: nil simulator or cloud")
	}
	switch {
	case opts.IntervalSeconds <= 0:
		return nil, fmt.Errorf("core: non-positive interval %v", opts.IntervalSeconds)
	case opts.VMBudgetPerHour == 0 || opts.StorageBudgetPerHour == 0:
		return nil, fmt.Errorf("core: unresolved zero budget (VM %v, storage %v $/h)", opts.VMBudgetPerHour, opts.StorageBudgetPerHour)
	case opts.Predictor == nil || opts.Policy == nil:
		return nil, fmt.Errorf("core: nil predictor or policy")
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
	broker, err := cloud.NewBroker(cl)
	if err != nil {
		return nil, err
	}
	workers := sim.EffectiveWorkers(opts.Workers, s.Channels())
	return &Controller{
		sim:         s,
		broker:      broker,
		cl:          cl,
		vmSpecs:     cl.VMClusters(),
		nfsSpecs:    cl.NFSClusters(),
		opts:        opts,
		planner:     opts.Policy.NewPlanner(),
		workers:     workers,
		derivers:    make([]deriver, workers),
		rateHistory: make([][]float64, s.Channels()),
		forecasts:   make([]float64, s.Channels()),
		factor:      1,
	}, nil
}

// serial reports whether a round's per-channel shards over n channels run
// on the calling goroutine (effective workers == 1, or one channel)
// rather than across the worker pool. A shard runs for one channel index
// ch on worker w, which indexes c.derivers, and touches only channel-ch
// state (the per-channel estimator feed, rateHistory[ch], its own slots
// of the scratch slices) plus worker-w scratch and read-only
// configuration; every cross-channel reduction happens serially after
// the fan-out, in ascending channel order, so rounds are bit-identical
// for any worker count. Each fan-out calls its shard in a loop on the
// serial path and builds the pool's closure, which escapes to the heap,
// only on the parallel one.
func (c *Controller) serial(n int) bool { return c.workers <= 1 || n <= 1 }

// demandSlot returns slot k of buf as one channel's demand storage:
// CloudDemand and PeerSupply, j entries each, capped so no append can
// spill into a neighbour.
func demandSlot(buf []float64, k, j int) (cloud, peer []float64) {
	base := 2 * k * j
	return buf[base : base+j : base+j], buf[base+j : base+2*j : base+2*j]
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
// — estimator read, forecast, matrix estimate, uplink probe — is sharded
// over the worker pool: each shard touches only its channel's feed,
// history, and inputs slot, and the round runs at a control barrier with
// no channel-stepping workers active, so the fan-out observes a settled
// engine and writes disjoint state. The feeds are reset once the round
// is planned: a feed's matrix stays valid only until its next Reset.
func (c *Controller) runInterval(now float64) {
	n := c.sim.Channels()
	if cap(c.scratchInputs) < n {
		c.scratchInputs = make([]ChannelInput, n)
	}
	inputs := c.scratchInputs[:n]
	if c.serial(n) {
		for ch := range n {
			c.snapshot(ch, inputs)
		}
	} else {
		sim.FanOutWorkers(c.workers, n, func(_, ch int) { c.snapshot(ch, inputs) })
	}
	c.Provision(now, inputs)
	for ch := 0; ch < n; ch++ {
		if est, err := c.sim.Estimator(ch); err == nil {
			est.Reset()
		}
	}
}

// snapshot is runInterval's shard: it reads channel ch's feed and fills
// inputs[ch] with the forecast rate, the estimated matrix and the mean
// uplink.
func (c *Controller) snapshot(ch int, inputs []ChannelInput) {
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
}

// forecast appends the observation to the channel's history and returns
// the predictor's rate for the next interval, which it also keeps for
// futureDemands. A full history shifts down in place, so it keeps one
// backing array (and the spare capacity futureDemands appends its
// forecasts into) for the whole run.
func (c *Controller) forecast(channel int, observed float64) float64 {
	h := c.rateHistory[channel]
	if len(h) >= historyLimit {
		h = h[:copy(h, h[len(h)-historyLimit+1:])]
	}
	h = append(h, observed)
	c.rateHistory[channel] = h
	c.forecasts[channel] = c.opts.Predictor.Predict(h)
	return c.forecasts[channel]
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

// deriveOne runs the demand analysis for one channel on the deriver d and
// applies the peer-supply trust and provisioning headroom, yielding the
// per-chunk cloud demand the policy plans on. It writes Δ into cloud and
// Γ into peer (cfg.Chunks entries each, caller-owned) and returns them
// as a ChannelDemand without its Equilibrium. A channel whose analysis
// fails (e.g. degenerate estimated matrix, or a chunk needing more
// servers than the search bound) gets zero demand rather than aborting
// the round; the error is returned for the caller to count and report.
func (c *Controller) deriveOne(d *deriver, cfg queueing.Config, in ChannelInput, p2pMode bool, cloud, peer []float64) (ChannelDemand, error) {
	if in.Transfer == nil {
		in.Transfer = c.opts.FallbackTransfer
	}
	out := ChannelDemand{CloudDemand: cloud, PeerSupply: peer}
	eq, peers, err := d.derive(cfg, in, p2pMode)
	if err != nil {
		clear(cloud)
		clear(peer)
		return out, err
	}
	if peers.PeerSupply != nil {
		copy(peer, peers.PeerSupply)
	} else {
		clear(peer)
	}
	// Apply peer-supply trust and provisioning headroom against the full
	// equilibrium capacity (Δ = capacity − trust·Γ, then slack).
	for i := range cloud {
		delta := eq.Capacity[i] - peerSupplyTrust*peer[i]
		if delta < 0 {
			delta = 0
		}
		cloud[i] = delta * provisionHeadroom
	}
	return out, nil
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
//
// The steps×channels matrix and every step's demand storage are
// controller scratch. A step that repeats its rate shares the previous
// step's (or the current round's) slices; a step that derives writes
// only its own (step, channel) slot, so no step overwrites storage that
// another step or the current round still reads. The predictor's
// history is the channel's own, extended by this round's forecasts in
// its spare capacity: rateHistory[ch] keeps its length, so the
// forecasts are gone from it before the next round observes. A
// predictor that folds its history (an extender) extends the forecast
// the round already made from that history by the round's rate for
// step 1 (re-folding it only in the bootstrap round, which has no
// history), and each later step by extending the previous forecast with
// itself. Each is the same fold, so the forecasts are bit-identical to
// re-predicting each step.
func (c *Controller) futureDemands(cfg queueing.Config, inputs []ChannelInput, current []ChannelDemand, currentRates []float64, p2pMode bool, now float64, k int) [][]provision.ChunkDemand {
	n, j := len(inputs), cfg.Chunks
	if len(c.scratchSteps) < k {
		c.scratchSteps = append(c.scratchSteps, make([][]ChannelDemand, k-len(c.scratchSteps))...)
	}
	steps := c.scratchSteps[:k]
	for step := range steps {
		if cap(steps[step]) < n {
			steps[step] = make([]ChannelDemand, n)
		}
		steps[step] = steps[step][:n]
	}
	size := 2 * k * n * j
	c.scratchStepOut = slices.Grow(c.scratchStepOut[:0], size)[:size]
	if c.serial(n) {
		for ch := range n {
			c.forecastSteps(0, ch, now, k, cfg, p2pMode, inputs, current, currentRates)
		}
	} else {
		sim.FanOutWorkers(c.workers, n, func(w, ch int) {
			c.forecastSteps(w, ch, now, k, cfg, p2pMode, inputs, current, currentRates)
		})
	}
	return c.flattenFuture(steps)
}

// forecastSteps is futureDemands' shard: channel ch's forecast chain over
// the k lookahead steps, written into column ch of c.scratchSteps.
func (c *Controller) forecastSteps(w, ch int, now float64, k int, cfg queueing.Config, p2pMode bool, inputs []ChannelInput, current []ChannelDemand, currentRates []float64) {
	T := c.opts.IntervalSeconds
	oracle := c.oracle()
	n, j := len(inputs), cfg.Chunks
	steps := c.scratchSteps[:k]
	in := inputs[ch]
	ext, folds := c.opts.Predictor.(extender)
	var hist []float64
	if !oracle {
		if h := c.rateHistory[ch]; cap(h)-len(h) < k+1 {
			c.rateHistory[ch] = slices.Grow(h, k+1)
		}
		hist = append(c.rateHistory[ch], in.ArrivalRate)
	}
	prev, prevRate := current[ch], currentRates[ch]
	for step := 1; step <= k; step++ {
		switch {
		case oracle:
			in.ArrivalRate = c.opts.TrueRates(ch, now+float64(step)*T, now+float64(step+1)*T)
		case folds && step == 1 && len(c.rateHistory[ch]) > 0:
			in.ArrivalRate = ext.extend(c.forecasts[ch], in.ArrivalRate)
		case folds && step > 1:
			in.ArrivalRate = ext.extend(in.ArrivalRate, in.ArrivalRate)
		default:
			in.ArrivalRate = c.opts.Predictor.Predict(hist)
			hist = append(hist, in.ArrivalRate)
		}
		if in.ArrivalRate == prevRate {
			steps[step-1][ch] = prev
		} else {
			cloud, peer := demandSlot(c.scratchStepOut, (step-1)*n+ch, j)
			//cloudmedia:allow noloss -- a failed forecast step plans at zero demand like a failed current round; DemandErrors counts the current round's failures
			steps[step-1][ch], _ = c.deriveOne(&c.derivers[w], cfg, in, p2pMode, cloud, peer)
		}
		prev, prevRate = steps[step-1][ch], in.ArrivalRate
	}
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
			if rec.DemandErrors == 0 {
				rec.DemandErr = "channel " + strconv.Itoa(ch) + ": " + errs[ch].Error()
			}
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
	rates := rec.ArrivalRates // passed instead of rec, which stays on the stack
	size := 2 * len(inputs) * cfg.Chunks
	c.scratchOut = slices.Grow(c.scratchOut[:0], size)[:size]
	if c.serial(len(inputs)) {
		for ch := range inputs {
			c.deriveChannel(0, ch, now, cfg, p2pMode, inputs, rates)
		}
	} else {
		sim.FanOutWorkers(c.workers, len(inputs), func(w, ch int) {
			c.deriveChannel(w, ch, now, cfg, p2pMode, inputs, rates)
		})
	}
	c.reduceDemands(&rec, demands, errs)

	c.scratchFlat = FlattenDemandsInto(c.scratchFlat, demands)
	req := provision.PlanRequest{
		Time:                 now,
		IntervalSeconds:      c.opts.IntervalSeconds,
		Demands:              c.scratchFlat,
		VMBandwidth:          cfg.VMBandwidth,
		ChunkBytes:           cfg.ChunkBytes(),
		VMClusters:           c.vmSpecs,
		NFSClusters:          c.nfsSpecs,
		VMBudgetPerHour:      c.opts.VMBudgetPerHour,
		StorageBudgetPerHour: c.opts.StorageBudgetPerHour,
		Pricing:              c.cl.Pricing(),
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
		c.finish(now, rec)
		return
	}
	rec.VMPlan = res.VMPlan
	rec.DemandScale = res.DemandScale
	rec.StoragePlan = res.StoragePlan
	if res.StorageErr != nil {
		rec.StorageErr = res.StorageErr.Error()
	}
	if err := c.apply(now, res.VMPlan, res.StoragePlan, cfg.VMBandwidth, cfg.Chunks, demands); err != nil {
		rec.SubmitErr = err.Error()
	}
	c.finish(now, rec)
}

// deriveChannel is Provision's shard: it derives channel ch's demand for
// the round at now from inputs[ch] (at the true rate, for oracle
// policies) into the channel's slots of the demand and error scratch, and
// records the rate it planned on in rates[ch].
func (c *Controller) deriveChannel(w, ch int, now float64, cfg queueing.Config, p2pMode bool, inputs []ChannelInput, rates []float64) {
	in := inputs[ch]
	if c.oracle() {
		in.ArrivalRate = c.opts.TrueRates(ch, now, now+c.opts.IntervalSeconds)
	}
	rates[ch] = in.ArrivalRate
	cloud, peer := demandSlot(c.scratchOut, ch, cfg.Chunks)
	c.scratchDemands[ch], c.scratchErrs[ch] = c.deriveOne(&c.derivers[w], cfg, in, p2pMode, cloud, peer)
}

// finish settles the bill for the interval that just ended, stamps it on
// the record, and delivers the record to the OnInterval subscriber.
func (c *Controller) finish(now float64, rec IntervalRecord) {
	rec.Cost = c.cl.Checkpoint(now)
	if c.opts.OnInterval != nil {
		c.opts.OnInterval(rec)
	}
}

// apply submits the SLA reconfiguration and updates the per-chunk serving
// capacities in the running system. A request the broker rejects is
// returned and changes nothing.
func (c *Controller) apply(now float64, vmPlan provision.VMPlan, storagePlan provision.StoragePlan, vmBandwidth float64, chunks int, demands []ChannelDemand) error {
	req := cloud.Request{Time: now, VMTargets: map[string]int{}, StorageGB: map[string]float64{}}
	for _, spec := range c.vmSpecs {
		req.VMTargets[spec.Name] = 0
	}
	for name, n := range vmPlan.RentalVMs() {
		req.VMTargets[name] = n
	}
	if storagePlan.GBPerCluster != nil {
		for _, spec := range c.nfsSpecs {
			req.StorageGB[spec.Name] = storagePlan.GBPerCluster[spec.Name]
		}
	} else {
		req.StorageGB = nil
	}
	if err := c.broker.Submit(req); err != nil {
		// Capacity races are not fatal: the system keeps last interval's
		// allocation and tries again next interval.
		return err
	}

	n := len(demands)
	if n > c.capChannels {
		grown := make([]float64, (n-c.capChannels)*chunks)
		c.planned = append(c.planned, grown...)
		c.caps = append(c.caps, grown...)
		c.capChannels = n
	}
	// The plan's per-chunk capacity, flat at ch*chunks+chunk and summed
	// in allocation order as VMPlan.CapacityPerChunk sums it; allocations
	// outside the demand set are ignored.
	planned := c.planned[:n*chunks]
	clear(planned)
	for _, a := range vmPlan.Allocations {
		if a.Channel >= 0 && a.Channel < n && a.Chunk >= 0 && a.Chunk < chunks {
			planned[a.Channel*chunks+a.Chunk] += a.VMs * vmBandwidth
		}
	}
	// Increases wait for the new VMs to boot: freshly requested VMs serve
	// only once booted. This delayed raise is the run's one boot model:
	// the cloud bills from the request and keeps no boot state. The
	// raises share one callback: scheduled one by one, their events would
	// have fired back to back in this order, with nothing in between.
	var raises []capRaise
	if k := len(c.freeRaises); k > 0 {
		raises, c.freeRaises = c.freeRaises[k-1], c.freeRaises[:k-1]
	}
	for ch, d := range demands {
		for i := range d.CloudDemand {
			key := ch*chunks + i
			p := planned[key]
			// Compare served values: under a zero factor nothing rises,
			// so an outage schedules no boot callbacks.
			if p*c.factor > c.caps[key]*c.factor {
				raises = append(raises, capRaise{ch: ch, chunk: i, target: p})
			} else {
				// Decreases take effect immediately (shutdown is fast).
				c.serve(ch, i, chunks, p)
			}
		}
	}
	if len(raises) == 0 {
		if raises != nil {
			c.freeRaises = append(c.freeRaises, raises)
		}
		return nil
	}
	//cloudmedia:allow noloss -- the boot latency is positive, so ScheduleAt cannot fail
	_ = c.sim.ScheduleAt(now+c.cl.BootLatency(), func(float64) {
		// A later plan may have lowered the chunk meanwhile, and a
		// preemption may have scaled what had booted: the raise brings up
		// at most the latest plan and never takes capacity away.
		for _, r := range raises {
			key := r.ch*chunks + r.chunk
			c.serve(r.ch, r.chunk, chunks, max(c.caps[key], min(r.target, c.planned[key])))
		}
		c.freeRaises = append(c.freeRaises, raises[:0])
	})
	return nil
}

// serve records v as the chunk's capacity before the fault factor and
// serves v × factor: the one place the controller writes capacity.
func (c *Controller) serve(ch, chunk, chunks int, v float64) {
	c.caps[ch*chunks+chunk] = v
	//cloudmedia:allow noloss -- channel/chunk come from the plan loop, which only visits valid indices
	_ = c.sim.SetCloudCapacity(ch, chunk, v*c.factor)
}

// rescale serves every chunk's caps × scale × factor, in ascending
// (channel, chunk) order so the float effects never depend on the worker
// count. Neither edge waits for a boot: the VMs behind caps are running.
func (c *Controller) rescale(scale float64) {
	if c.capChannels == 0 {
		return
	}
	chunks := len(c.caps) / c.capChannels
	for key, v := range c.caps {
		c.serve(key/chunks, key%chunks, chunks, v*scale)
	}
}

// SetCapacityFactor sets the fault factor, the product of the fault
// windows open now (1 = healthy), and re-serves every chunk's booted
// capacity times it at once. Must be called at a control barrier (from a
// scheduled callback or between RunUntil calls), like every backend
// interaction.
func (c *Controller) SetCapacityFactor(now, factor float64) error {
	if !(factor >= 0 && factor <= 1) { // NaN fails too
		return fmt.Errorf("core: capacity factor %v outside [0,1]", factor)
	}
	c.factor = factor
	c.rescale(1)
	return nil
}

// ScaleCapacity scales the booted capacity by the survivor fraction of a
// spot preemption, called after Cloud.PreemptSpot removed the billed VMs.
// Raises still booting are untouched, and the next provisioning round
// re-rents the lost VMs through the normal boot-latency path. Must be
// called at a control barrier.
func (c *Controller) ScaleCapacity(now, factor float64) error {
	if !(factor >= 0 && factor <= 1) { // NaN fails too
		return fmt.Errorf("core: capacity scale %v outside [0,1]", factor)
	}
	c.rescale(factor)
	return nil
}
