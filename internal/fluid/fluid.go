package fluid

import (
	"fmt"
	"math"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/workload"
)

// stepSeconds is the integration step. The kernel integrates the linear
// flows exactly over a step (see stepConst and drainStep), so the step
// bounds accuracy, not stability. It is the largest divisor of a minute
// whose error TestStepConvergence accepts: no larger than a 1 s explicit
// Euler step's (DESIGN.md "Engine fidelities" has the table).
const stepSeconds = 3

// batchSteps caps how many steps one worker fan-out integrates before
// the pool re-synchronizes. The cap bounds the per-step rates scratch
// (batchSteps × channels floats) while still amortizing the pool handoff
// over hundreds of steps: with the default 3 s step and 900 s samples a
// 24 h day pays ~200 handoffs instead of 28 800.
const batchSteps = 256

// Backend integrates the fluid-cohort model. It implements sim.Backend,
// so the provisioning controller and the public run loop drive it exactly
// like the discrete-event engine. The model is fully deterministic: the
// scenario seed is ignored (there is no sampling to derive from it), and
// results are bit-identical for every worker count (see integrateTo).
//
// The per-channel state lives in struct-of-arrays layout: one contiguous
// backing array per field, indexed channel*J + j. Each step walks
// the arrays with unit stride, so the hot loops stay in cache regardless
// of the channel count — the state for a 64-channel day is a handful of
// small flat arrays, not a pointer chase across per-channel objects.
type Backend struct {
	cfg  sim.Config
	src  workload.Source // resolved demand source (trace or parametric)
	step float64

	engine *sim.Engine // control callbacks (controller intervals, boots)
	now    float64

	meanUplink float64

	// C channels × J chunks; every per-chunk array below has C*J entries
	// indexed channel*J + j.
	C, J int

	playing  []float64 // viewers currently playing chunk j
	waiting  []float64 // viewers waiting on chunk j's download
	owners   []float64 // chunk-j copies cached across current viewers
	cloudCap []float64 // Δ per chunk, bytes/s
	peerCap  []float64 // Γ per chunk, bytes/s (recomputed every step)

	// Scratch arrays reused across steps, same channel*J + j indexing.
	// order is the one exception that carries meaning between steps: each
	// channel's rarest-first visiting order starts as the identity at New
	// and is re-sorted from the previous step's order (see allocatePeers).
	inWait []float64
	inPlay []float64
	demand []float64
	order  []int

	// Per-channel scalars (length C).
	cloudBytesServed []float64
	smooth           []float64 // windowed smooth-playback fraction
	capTotal         []float64 // cached Σ_j cloudCap, see channelCloudCap
	capDirty         []bool
	totalCap         float64 // cached Σ over all chunks, see TotalCloudCapacity
	totalCapDirty    bool
	feeds            []*feed

	// Transfer-matrix constants, precomputed once at New: the constant
	// row sums and a dense row-major copy of the matrix, trans[j*J+k], in
	// which every cell that is not positive (zero, negative zero, NaN) is
	// stored as +0. The completion pass walks each row once, unit stride,
	// fused with the jump pass (see stepChannel).
	rowSum []float64
	trans  []float64

	// workers bounds the pool that integrates channels in parallel within
	// each batched fan-out (see Config.Workers on the shared sim.Config).
	workers int

	// Batched-step scratch: integrateTo pre-resolves up to batchSteps
	// steps serially — per-step start times, the step constants, and the
	// full arrival-rate matrix rates[s*C+c] — then fans the channels out
	// over the worker pool, each integrating through the whole batch.
	// Every step of a batch but the last is a full step; the last is cut
	// short when the barrier falls inside it, so it has its own constants.
	rates      []float64
	times      []float64
	full, last stepConst
}

var _ sim.Backend = (*Backend)(nil)

// New builds a fluid backend for the scenario, which it resolves exactly
// as the event engine does (sim.Config.Resolve).
func New(cfg sim.Config) (*Backend, error) {
	sc, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	src := sc.Source
	if src == nil {
		src = sc.Workload.Source()
	}
	// Short chunks or frequent jumps shrink the step: a step of a quarter
	// of either time constant keeps the per-step lumping of arrivals and
	// of the queues' inflow a small share of what the cohorts hold, which
	// is what the step's accuracy rests on.
	step := min(stepSeconds, sc.Channel.ChunkSeconds/4, sc.Workload.JumpMeanSeconds/4)
	C := sc.Workload.Channels
	J := sc.Channel.Chunks
	workers := sim.EffectiveWorkers(sc.Workers, C)
	b := &Backend{
		cfg:        sc,
		src:        src,
		step:       step,
		engine:     sim.NewEngine(),
		meanUplink: sc.Workload.PeerUplink.Mean(),
		C:          C,
		J:          J,
		workers:    workers,
	}
	// Prime any lazy source caches (Zipf weights) while construction is
	// still serial.
	for c := 0; c < C; c++ {
		if _, err := src.MaxRate(c); err != nil {
			return nil, err
		}
	}
	b.playing = make([]float64, C*J)
	b.waiting = make([]float64, C*J)
	b.owners = make([]float64, C*J)
	b.cloudCap = make([]float64, C*J)
	b.peerCap = make([]float64, C*J)
	b.inWait = make([]float64, C*J)
	b.inPlay = make([]float64, C*J)
	b.demand = make([]float64, C*J)
	b.order = make([]int, C*J)
	for i := range b.order {
		b.order[i] = i % J
	}
	b.cloudBytesServed = make([]float64, C)
	b.smooth = make([]float64, C)
	b.capTotal = make([]float64, C)
	b.capDirty = make([]bool, C)
	b.feeds = make([]*feed, C)
	for c := 0; c < C; c++ {
		b.smooth[c] = 1
		b.feeds[c] = newFeed(J)
	}
	// Precompute the transfer matrix's constant row sums and its dense
	// copy. The row sum accumulates the positive entries in ascending
	// destination order, matching the order a per-step scan would add
	// them in, so the departure flow comp·(1−rowSum) is unchanged.
	b.rowSum = make([]float64, J)
	b.trans = make([]float64, J*J)
	for j := 0; j < J; j++ {
		for k := 0; k < J; k++ {
			if p := sc.Transfer[j][k]; p > 0 {
				b.rowSum[j] += p
				b.trans[j*J+k] = p
			}
		}
	}
	b.rates = make([]float64, batchSteps*C)
	b.times = make([]float64, batchSteps)
	return b, nil
}

// Now returns the simulated clock in seconds.
func (b *Backend) Now() float64 { return b.now }

// RunUntil integrates the cohort flows to time t, pausing at every
// scheduled control event (provisioning rounds, delayed capacity
// applications) so the controller observes a settled state.
func (b *Backend) RunUntil(t float64) {
	for {
		barrier := t
		if at, ok := b.engine.NextAt(); ok && at < barrier {
			barrier = at
		}
		if b.cfg.Pacer != nil && barrier > b.now {
			b.cfg.Pacer(barrier)
		}
		b.integrateTo(barrier)
		b.engine.RunUntil(barrier)
		if barrier >= t {
			return
		}
	}
}

// integrateTo advances the ODE state to time t with fixed steps, batched
// between control barriers: up to batchSteps steps are resolved serially
// (start times, step constants and the arrival-rate matrix, fillRates),
// then every channel integrates through the whole batch on the worker
// pool. Channels are independent within a span — arrival rates are
// pre-batched into b.rates and all mutation is per-channel state — so
// each channel's arithmetic is the exact serial sequence regardless of
// the worker count, and reductions over channels stay index-ordered. Results are therefore
// bit-identical for any Workers value.
//
//cloudmedia:hotpath
func (b *Backend) integrateTo(t float64) {
	for b.now < t {
		now := b.now
		n := 0
		dt := b.step
		for now < t && n < batchSteps {
			if now+dt > t {
				dt = t - now
			}
			b.times[n] = now
			now += dt
			n++
		}
		b.full = newStep(b.step, b.cfg.Channel, b.cfg.Workload.JumpMeanSeconds)
		b.last = newStep(dt, b.cfg.Channel, b.cfg.Workload.JumpMeanSeconds)
		b.fillRates(n)
		b.runBatch(n)
		b.now = now
	}
	b.now = t
}

// fillRates resolves the batch's arrival-rate matrix — the demand plane.
// Each step s gets one batched source query at its start time, writing
// the row b.rates[s*C:(s+1)*C]; batching per step (rather than per
// channel) keeps the source's shared-work fast path (the diurnal
// multiplier, the trace's interpolation segment) resolved once per
// instant. It runs serially: the demand plane is a sliver of the day
// next to the channel integration, and a worker fan-out here measured
// within noise of this loop.
//
//cloudmedia:hotpath
func (b *Backend) fillRates(n int) {
	for s := 0; s < n; s++ {
		row := b.rates[s*b.C : (s+1)*b.C]
		if err := workload.RatesInto(b.src, b.times[s], row); err != nil {
			clear(row) // unreachable: the channel count always matches the source
		}
	}
}

// runBatch integrates every channel through the first n pre-resolved
// steps, fanning the channels out over the worker pool. Workers share
// only read-only state (the rates/times scratch, the step and transfer
// constants); every mutable array is partitioned by channel, so the
// shards never touch the same cache line's worth of state twice. The
// serial branch (effective workers == 1: explicit Workers==1, a
// single-core host, or one channel) runs on the calling goroutine before
// the fan-out closure is built, keeping that path allocation- and
// goroutine-free.
func (b *Backend) runBatch(n int) {
	if b.workers <= 1 || b.C == 1 {
		for c := 0; c < b.C; c++ {
			b.integrateChannel(c, n)
		}
		return
	}
	sim.FanOut(b.workers, b.C, func(c int) {
		b.integrateChannel(c, n)
	})
}

// integrateChannel advances one channel through the batch's n steps —
// the per-worker inner loop. All state it touches is the channel's own
// slice [c*J, (c+1)*J) of the backing arrays, plus the channel's feed and
// scalars — nothing shared with other channels, which is what lets
// runBatch shard channels across workers. The per-step work stays in
// stepChannel rather than being flattened into this loop: the fused
// kernel's live set already fills the register file, and widening its
// scope to batch-lifetime locals pushes the hot inner loops into stack
// spills (measured ~10% slower on FluidMillionViewers).
func (b *Backend) integrateChannel(c, n int) {
	for s := 0; s < n-1; s++ {
		b.stepChannel(c, b.times[s], b.rates[s*b.C+c], &b.full)
	}
	b.stepChannel(c, b.times[n-1], b.rates[(n-1)*b.C+c], &b.last)
}

// channelUsers returns the viewer stock of one channel.
func (b *Backend) channelUsers(c int) float64 {
	var n float64
	base := c * b.J
	for j := 0; j < b.J; j++ {
		n += b.playing[base+j] + b.waiting[base+j]
	}
	return n
}

// stepChannel advances one channel by one step starting at time t, with
// external arrival rate lambda (pre-batched by integrateTo) and the
// step's constants st — the engine's fused kernel. It allocates nothing:
// all state and scratch was sized at New.
//
// The update is exact in dt for the linear flows: playback completions
// and VCR jumps leave a cohort at the competing-exponential fractions in
// st, each download queue drains by the closed-form solution of its
// saturating drain over the step (drainStep), and the quality window
// decays by its exponential factor. The step's arrivals, completions and
// jumps are lumped into the queues' inflow, which drainStep spreads
// evenly over the step.
//
// Everything invariant within the step is hoisted out of the per-chunk
// loops — config scalars, int→float conversions, the channel's slice
// headers, resliced to one proven length so the loops carry no bounds
// checks — and the per-step passes are fused: one loop computes the
// viewer stock and cached-copy sum, the clear pass is folded into
// arrival seeding (direct stores replace clear-then-add), and playback
// completions and VCR jumps share one dense pass per transition row —
// without reordering a single float operation. Every memory cell and
// every scalar accumulator sees the exact per-step sequence the unfused
// passes produce, apart from added +0 terms that change no value (see
// step 2+3); the oracle test pins this bit for bit.
//
//cloudmedia:hotpath
func (b *Backend) stepChannel(c int, t, lambda float64, st *stepConst) {
	cfg := b.cfg.Channel
	J := b.J
	base := c * J
	T0 := cfg.ChunkSeconds
	B := cfg.ChunkBytes()
	dt := st.dt
	fJ := float64(J)

	playing := b.playing[base : base+J]
	waiting := b.waiting[base : base+J][:len(playing)]
	owners := b.owners[base : base+J][:len(playing)]
	cloudCap := b.cloudCap[base : base+J][:len(playing)]
	peerCap := b.peerCap[base : base+J][:len(playing)]
	inWait := b.inWait[base : base+J][:len(playing)]
	inPlay := b.inPlay[base : base+J][:len(playing)]
	feed := b.feeds[c]

	// Viewer stock and cached-copy sum, fused into one pass. Each
	// accumulator keeps its own index-ordered sequence; the copy sum is
	// simply discarded for an empty channel.
	var stock, copies float64
	for j := range playing {
		stock += playing[j] + waiting[j]
		copies += owners[j]
	}
	// Average fraction of the library a viewer holds: the probability a
	// VCR jump lands on a cached chunk and replays without a download.
	ownedFrac := 0.0
	if stock > 0 {
		ownedFrac = copies / (stock * fJ)
		if ownedFrac > 1 {
			ownedFrac = 1
		}
	}

	// 1. External arrivals: chunk 1 with probability α, uniform
	// otherwise. Seeding stores directly, absorbing the old clear pass
	// (rates are non-negative, so 0+x and x are the same value).
	arrivals := lambda * dt
	feed.arrivals += arrivals
	if b.cfg.OnArrivals != nil && arrivals > 0 {
		b.cfg.OnArrivals(c, t, arrivals)
	}
	if J == 1 {
		inWait[0] = arrivals
		inPlay[0] = 0
	} else {
		entry := cfg.EntryFirstChunk
		inWait[0] = arrivals * entry
		inPlay[0] = 0
		rest := arrivals * (1 - entry) / float64(J-1)
		for j := 1; j < len(inWait); j++ {
			inWait[j] = rest
			inPlay[j] = 0
		}
	}

	// 2+3. Playback completions and VCR jumps, fused into one dense pass
	// per transition row. Both leave the step-start cohort at their
	// competing-exponential shares; completions flow along row j of the
	// transfer matrix (the constant row sum gives the departing
	// remainder) and jumps spread uniformly over the row. Each cell sees
	// the per-cell sequence trow[k] + flow + per that a completion
	// scatter over the positive entries followed by a jump pass over the
	// row produces, because the terms the dense pass adds beyond them are
	// +0 — a cell the matrix does not reach gets comp·0, a row with no
	// jump gets per = 0 — and adding +0 changes no value except −0. The
	// transition accumulators never hold −0: they start at +0 and receive
	// only non-negative products. inWait holds −0 only after a −0 arrival
	// rate, and every read of it adds a waiting count that is +0 or
	// larger, so the sign of that zero never reaches a result. Cross-
	// chunk state (inWait, transition rows) is only ever touched by its
	// own chunk's iteration, so fusion changes no accumulation order.
	transitions := feed.transitions[:J*J]
	trans := b.trans[:J*J]
	rowSum := b.rowSum[:len(playing)]
	departed := feed.departures[:len(playing)]
	compFrac, jumpFrac := st.comp, st.jump
	var departures, jumpTotal float64
	for j := range playing {
		p := playing[j]
		comp := p * compFrac
		jump := p * jumpFrac
		if comp > 0 {
			leave := comp * (1 - rowSum[j])
			if leave < 0 {
				leave = 0
			}
			departed[j] += leave
			departures += leave
			p -= comp
		}
		// Uniform jump destination; a cached destination replays
		// immediately (no download), an uncached one queues.
		per := 0.0
		if jump > 0 {
			jumpTotal += jump
			p -= jump
			per = jump / fJ
		}
		playing[j] = p
		// A jump without a completion means comp underflowed to +0, so
		// comp is never negative here and its flows are +0 or positive.
		if comp > 0 || jump > 0 {
			row := j * J
			prow := trans[row : row+J]
			trow := transitions[row : row+J][:len(prow)]
			dst := inWait[:len(prow)]
			for k, pk := range prow {
				flow := comp * pk
				trow[k] = trow[k] + flow + per
				dst[k] += flow
			}
		}
	}
	if jumpTotal > 0 {
		perHit := jumpTotal * ownedFrac / fJ
		perMiss := jumpTotal * (1 - ownedFrac) / fJ
		for k := range inPlay {
			inPlay[k] += perHit
			inWait[k] += perMiss
		}
	}

	// 4. Remove the departing viewers' cached copies (each departing
	// viewer holds owners[j]/stock of chunk j on average).
	if departures > 0 && stock > 0 {
		f := departures / stock
		if f > 1 {
			f = 1
		}
		for j := range owners {
			owners[j] -= owners[j] * f
		}
	}

	// 5. Allocate peer uplink for this step (P2P only): the fluid
	// counterpart of the event engine's 30-second rebalance, run every
	// step because it is O(J) when owner counts drift slowly.
	if b.cfg.Mode == sim.P2P {
		b.allocatePeers(c)
	}

	// 6. Serve the download queues: each chunk drains at the provisioned
	// capacity, bounded by a per-download rate of R (drainStep).
	// Completions move viewers into the playing cohort and add cached
	// copies.
	served := b.cloudBytesServed[c]
	invDt := st.invDt
	var demandBps, servedBps float64
	for j := range playing {
		q0 := waiting[j]
		in := inWait[j]
		queue := q0 + in
		if queue <= 0 {
			waiting[j] = 0
			playing[j] += inPlay[j]
			continue
		}
		capJ := cloudCap[j] + peerCap[j]
		drained, backlog := drainStep(q0, in, capJ, st)
		bytes := drained * B
		peerShare := min(bytes, peerCap[j]*dt)
		served += bytes - peerShare

		waiting[j] = queue - drained
		playing[j] += drained + inPlay[j]
		owners[j] += drained

		// Smoothness pressure: the bandwidth needed to serve this step's
		// requests plus the step's mean backlog within the
		// chunk-playback grace period, against what the capacity
		// actually delivered.
		need := (in*invDt + backlog/T0) * B
		got := need
		if capJ < got {
			got = capJ
		}
		demandBps += need
		servedBps += got
	}
	b.cloudBytesServed[c] = served

	// 7. Windowed quality: exponential window matching the event engine's
	// trailing stall window.
	instant := 1.0
	if demandBps > 0 {
		instant = servedBps / demandBps
	}
	b.smooth[c] += st.window * (instant - b.smooth[c])
}

// allocatePeers splits the channel's aggregate peer uplink across chunks,
// the fluid counterpart of the event engine's rebalance: rarest-first
// visits chunks by ascending copy count; proportional splits by demand.
// Each chunk draws at most owners×meanUplink (only cached copies can
// upload) and at most the remaining budget. The viewer stock is re-read
// here — mid-step, after completions and jumps drained the playing
// cohorts — because the uplink budget must reflect the viewers actually
// present while the queues drain.
//
// A chunk's demand is its step-start queue's download rate, waiting×R.
// The step's inflow is not counted: drainStep spreads it over the step,
// and counting it as if it waited from the step start overstates demand
// by a term that grows with dt.
//
//cloudmedia:hotpath
func (b *Backend) allocatePeers(c int) {
	J := b.J
	base := c * J
	peerCap := b.peerCap[base : base+J]
	playing := b.playing[base : base+J][:len(peerCap)]
	waiting := b.waiting[base : base+J][:len(peerCap)]
	owners := b.owners[base : base+J][:len(peerCap)]
	demand := b.demand[base : base+J][:len(peerCap)]
	order := b.order[base : base+J]
	R := b.cfg.Channel.VMBandwidth
	mu := b.meanUplink

	// The viewer stock (accumulated in index order, as channelUsers does)
	// and the per-chunk download demand in one pass. demand is scratch
	// read only below, so filling it for an empty channel is harmless.
	var n float64
	for j := range peerCap {
		n += playing[j] + waiting[j]
		demand[j] = waiting[j] * R
	}
	if n <= 0 {
		for j := range peerCap {
			peerCap[j] = 0
		}
		return
	}
	budget := n * mu

	if b.cfg.Scheduling == sim.Proportional {
		var total float64
		for j := range peerCap {
			if owners[j] > 0 {
				total += demand[j]
			}
		}
		for j := range peerCap {
			take := 0.0
			if owners[j] > 0 && total > 0 {
				share := budget * demand[j] / total
				take = min(demand[j], share, owners[j]*mu)
			}
			peerCap[j] = take
		}
		return
	}

	// Rarest first. The channel's order is kept across steps and
	// re-sorted in place by insertion sort under the strict total order
	// (owners, index). A strict total order has exactly one sorted
	// permutation, so the result is the one a stable sort of the identity
	// gives — whatever order it starts from — while copy counts that
	// drift slowly leave it nearly sorted, making the pass about O(J).
	// The order is total because owners are finite: they are built from
	// finite flows, and SetCloudCapacity rejects NaN and +Inf capacities.
	for i := 1; i < len(order); i++ {
		v := order[i]
		ov := owners[v]
		k := i - 1
		for ; k >= 0; k-- {
			u := order[k]
			if ou := owners[u]; ou < ov || (ou == ov && u < v) {
				break
			}
			order[k+1] = u
		}
		order[k+1] = v
	}
	// The draw is min(demand, budget, owners×meanUplink) as two compares.
	// They differ from the built-in min only on NaN operands and when the
	// later operand is −0 against an earlier +0, and neither occurs here:
	// all three are finite, budget is positive inside the branch and the
	// owners' uplink is +0 or positive, so only demand can be −0, and
	// then both forms return it.
	for _, j := range order {
		take := 0.0
		if owners[j] > 0 && budget > 0 {
			take = demand[j]
			if budget < take {
				take = budget
			}
			if up := owners[j] * mu; up < take {
				take = up
			}
		}
		peerCap[j] = take
		budget -= take
	}
}

// ScheduleAt runs fn at simulated time t, with the ODE state integrated
// exactly to t.
func (b *Backend) ScheduleAt(t float64, fn func(now float64)) error {
	err := b.engine.Schedule(t, func() { fn(b.engine.Now()) })
	return err
}

// ScheduleRepeating runs fn at start, start+interval, start+2·interval, …
func (b *Backend) ScheduleRepeating(start, interval float64, fn func(now float64)) error {
	if interval <= 0 {
		return fmt.Errorf("fluid: non-positive repeat interval %v", interval)
	}
	var tick func()
	at := start
	tick = func() {
		fn(b.engine.Now())
		at += interval
		//cloudmedia:allow noloss -- at > now by construction, Schedule cannot fail
		_ = b.engine.Schedule(at, tick)
	}
	err := b.engine.Schedule(start, tick)
	return err
}

// Mode returns the scenario's streaming mode.
func (b *Backend) Mode() sim.Mode { return b.cfg.Mode }

// ChannelConfig returns the per-channel parameters.
func (b *Backend) ChannelConfig() queueing.Config { return b.cfg.Channel }

// Channels returns the number of channels.
func (b *Backend) Channels() int { return b.C }

// SetCloudCapacity sets the cloud share Δ for one chunk, bytes/s.
func (b *Backend) SetCloudCapacity(channel, chunk int, bytesPerSecond float64) error {
	if channel < 0 || channel >= b.C {
		return fmt.Errorf("fluid: channel %d outside [0,%d)", channel, b.C)
	}
	if chunk < 0 || chunk >= b.J {
		return fmt.Errorf("fluid: chunk %d outside [0,%d)", chunk, b.J)
	}
	if !(bytesPerSecond >= 0) || math.IsInf(bytesPerSecond, 1) {
		return fmt.Errorf("fluid: capacity %v is not a finite non-negative rate", bytesPerSecond)
	}
	b.cloudCap[channel*b.J+chunk] = bytesPerSecond
	b.capDirty[channel] = true
	b.totalCapDirty = true
	return nil
}

// channelCloudCap returns the channel's provisioned cloud total from the
// per-channel cache, recomputing it only after SetCloudCapacity writes.
// The controller writes all J chunks of a channel per interval and then
// reads totals repeatedly; the cache turns those reads O(1) amortized
// instead of re-summing O(J) per read. Recomputation walks the chunks in
// index order, so the cached value is bit-identical to a fresh sum.
func (b *Backend) channelCloudCap(c int) float64 {
	if b.capDirty[c] {
		var total float64
		base := c * b.J
		for j := 0; j < b.J; j++ {
			total += b.cloudCap[base+j]
		}
		b.capTotal[c] = total
		b.capDirty[c] = false
	}
	return b.capTotal[c]
}

// CloudCapacity returns the channel's provisioned cloud capacity, bytes/s.
func (b *Backend) CloudCapacity(channel int) (float64, error) {
	if channel < 0 || channel >= b.C {
		return 0, fmt.Errorf("fluid: channel %d outside [0,%d)", channel, b.C)
	}
	return b.channelCloudCap(channel), nil
}

// TotalCloudCapacity returns the capacity provisioned across all channels.
// The total is cached across reads and recomputed only after a
// SetCloudCapacity write, as one index-ordered pass over the flat backing
// array — the same single accumulator a fresh nested sum would use, so the
// cached value is bit-identical to the uncached one.
func (b *Backend) TotalCloudCapacity() float64 {
	if b.totalCapDirty {
		var total float64
		for _, v := range b.cloudCap {
			total += v
		}
		b.totalCap = total
		b.totalCapDirty = false
	}
	return b.totalCap
}

// CloudBytesServed returns the cumulative cloud-attributed bytes. Byte
// counters are per-channel (each channel's worker owns its own
// accumulator), so the total is their sum in channel order.
func (b *Backend) CloudBytesServed() float64 {
	var total float64
	for c := 0; c < b.C; c++ {
		total += b.cloudBytesServed[c]
	}
	return total
}

// TotalUsers returns the viewer count across all channels.
func (b *Backend) TotalUsers() int {
	var n float64
	for c := 0; c < b.C; c++ {
		n += b.channelUsers(c)
	}
	return int(n + 0.5)
}

// MeanUplink returns the population mean uplink (the distribution mean:
// cohorts do not track per-viewer draws), or 0 for an empty channel,
// matching the event engine's convention.
func (b *Backend) MeanUplink(channel int) (float64, error) {
	if channel < 0 || channel >= b.C {
		return 0, fmt.Errorf("fluid: channel %d outside [0,%d)", channel, b.C)
	}
	if b.channelUsers(channel) <= 0 {
		return 0, nil
	}
	return b.meanUplink, nil
}

// Estimator exposes the channel's flow-accumulator feed.
func (b *Backend) Estimator(channel int) (sim.Feed, error) {
	if channel < 0 || channel >= b.C {
		return nil, fmt.Errorf("fluid: channel %d outside [0,%d)", channel, b.C)
	}
	return b.feeds[channel], nil
}

// SampleQuality reports the windowed smooth-playback fraction per channel
// and overall, weighted by channel population.
func (b *Backend) SampleQuality() sim.QualitySample {
	sample := sim.QualitySample{
		Time:            b.now,
		PerChannel:      make([]float64, b.C),
		UsersPerChannel: make([]int, b.C),
	}
	var weighted, total float64
	for c := 0; c < b.C; c++ {
		n := b.channelUsers(c)
		sample.UsersPerChannel[c] = int(n + 0.5)
		if n <= 0 {
			sample.PerChannel[c] = 1
		} else {
			sample.PerChannel[c] = b.smooth[c]
		}
		weighted += sample.PerChannel[c] * n
		total += n
	}
	if total <= 0 {
		sample.Overall = 1
	} else {
		sample.Overall = weighted / total
	}
	return sample
}
