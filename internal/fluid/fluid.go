package fluid

import (
	"fmt"
	"math"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/workload"
)

// stepSeconds is the integration step. The kernel integrates the linear
// flows exactly over a step (see stepConst and drainStep) and budgets the
// peer split from the step's mean viewer stock (see allocatePeers), so
// the step bounds accuracy, not stability. At 10 s the quality error on
// TestStepConvergence's peak day is about a ninth of that test's bar (a
// 1 s explicit Euler step's error), and on every variant
// TestStepConvergenceAcrossScenarios runs it is within half of the bar.
// A 15 s step passes both tests too, with errors about twice as large;
// 10 s keeps the margin (DESIGN.md "Engine fidelities" has the tables).
// The viewer stock converges at first order and reads 6.3% above its
// dt → 0 estimate at 10 s on that peak day: drained viewers start
// playing at the step's end (TestStepConvergence bounds it at 7%).
const stepSeconds = 10

// batchSeconds is the simulated time one worker fan-out integrates
// before the pool re-synchronizes: the default sampling period, whose
// barriers cut every batch anyway. New sizes the per-step scratch to
// the steps of one such period (ceil(batchSeconds/step) × channels
// floats), which amortizes the pool handoff over every step between two
// samples: a 24 h day at the default 10 s step pays ~100 handoffs
// instead of 8 640.
const batchSeconds = 900

// Backend integrates the fluid-cohort model. It implements sim.Backend,
// so the provisioning controller and the public run loop drive it exactly
// like the discrete-event engine: its sim.Engine runs the control
// callbacks (controller intervals, boots) and integrateTo moves the state
// between them. The model is fully deterministic: the scenario seed is
// ignored (there is no sampling to derive from it), and results are
// bit-identical for every worker count (see integrateTo).
//
// The per-channel state lives in struct-of-arrays layout: one contiguous
// backing array per field, indexed channel*J + j. Each step walks
// the arrays with unit stride, so the hot loops stay in cache regardless
// of the channel count — the state for a 64-channel day is a handful of
// small flat arrays, not a pointer chase across per-channel objects.
type Backend struct {
	*sim.Engine
	cfg  sim.Config
	step float64

	meanUplink float64

	// C channels × J chunks; every per-chunk array below has C*J entries
	// indexed channel*J + j.
	C, J int

	playing  []float64 // viewers currently playing chunk j
	waiting  []float64 // viewers waiting on chunk j's download
	owners   []float64 // chunk-j copies cached across current viewers
	cloudCap []float64 // Δ per chunk, bytes/s
	peerCap  []float64 // Γ per chunk, bytes/s (recomputed every step)

	// flow and inflow are scratch reused across steps, same channel*J + j
	// indexing: the completion flow each chunk's row sends along the
	// transfer matrix this step, and the completion inflow each chunk
	// gathers from them (see gather). order carries meaning between steps:
	// each channel's rarest-first visiting order starts as the identity at
	// New and is re-sorted from the previous step's order (see
	// allocatePeers).
	flow   []float64
	inflow []float64
	order  []int

	// Per-channel scalars (length C).
	cloudBytesServed []float64
	smooth           []float64 // windowed smooth-playback fraction
	feeds            []*feed

	// Transfer-matrix constants, precomputed once at New: the constant
	// row sums and the matrix split for the chunk pass's completion
	// gather (see gather). The feeds share the row sums and a row-major
	// copy of the matrix.
	rowSum []float64
	gather gather

	// workers bounds the pool that integrates channels in parallel within
	// each batched fan-out (see Config.Workers on the shared sim.Config).
	workers int

	// Batched-step scratch: integrateTo pre-resolves up to batchSteps
	// steps (one batchSeconds period) serially — per-step start times,
	// the step constants, and the full arrival-rate matrix rates[s*C+c]
	// — then fans the channels out over the worker pool, each
	// integrating through the whole batch.
	// Every step of a batch but the last is a full step; the last is cut
	// short when the barrier falls inside it, so it has its own constants.
	batchSteps int
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
		meanUplink: sc.Workload.PeerUplink.Mean(),
		C:          C,
		J:          J,
		workers:    workers,
	}
	// Prime any lazy source caches (Zipf weights) while construction is
	// still serial.
	for c := 0; c < C; c++ {
		if _, err := sc.Source.MaxRate(c); err != nil {
			return nil, err
		}
	}
	b.playing = make([]float64, C*J)
	b.waiting = make([]float64, C*J)
	b.owners = make([]float64, C*J)
	b.cloudCap = make([]float64, C*J)
	b.peerCap = make([]float64, C*J)
	b.flow = make([]float64, C*J)
	b.inflow = make([]float64, C*J)
	b.order = make([]int, C*J)
	for i := range b.order {
		b.order[i] = i % J
	}
	// Precompute the transfer matrix's constant row sums, its row-major
	// copy (every cell that is not positive stored as +0) and its split.
	// The row sum accumulates the positive entries in ascending
	// destination order, matching the order a per-step scan would add
	// them in, so the departure flow comp·(1−rowSum) is unchanged.
	b.rowSum = make([]float64, J)
	trans := make([]float64, J*J)
	for j := 0; j < J; j++ {
		for k := 0; k < J; k++ {
			if p := sc.Transfer[j][k]; p > 0 {
				b.rowSum[j] += p
				trans[j*J+k] = p
			}
		}
	}
	b.gather = newGather(sc.Transfer)
	b.cloudBytesServed = make([]float64, C)
	b.smooth = make([]float64, C)
	b.feeds = make([]*feed, C)
	for c := 0; c < C; c++ {
		b.smooth[c] = 1
		b.feeds[c] = newFeed(J, trans, b.rowSum)
	}
	b.Engine = sim.NewEngine(b.integrateTo, sc.Pacer)
	b.setStep(step)
	return b, nil
}

// setStep sets the integration step and sizes the batch scratch to the
// steps of one batchSeconds period.
func (b *Backend) setStep(dt float64) {
	b.step = dt
	b.batchSteps = int(math.Ceil(batchSeconds / dt))
	b.rates = make([]float64, b.batchSteps*b.C)
	b.times = make([]float64, b.batchSteps)
}

// integrateTo advances the ODE state from Now to the control barrier t
// with fixed steps: up to b.batchSteps steps are resolved serially
// (start times, step constants and the arrival-rate matrix, fillRates),
// then every channel integrates through the whole batch on the worker
// pool. Channels are independent within a span — arrival rates are
// pre-batched into b.rates and all mutation is per-channel state — so
// each channel's arithmetic is the exact serial sequence regardless of
// the worker count, and reductions over channels stay index-ordered.
// Results are therefore bit-identical for any Workers value.
//
//cloudmedia:hotpath
func (b *Backend) integrateTo(t float64) {
	for now := b.Now(); now < t; {
		n := 0
		dt := b.step
		for now < t && n < b.batchSteps {
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
	}
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
		if err := workload.RatesInto(b.cfg.Source, b.times[s], row); err != nil {
			clear(row) // unreachable: the channel count always matches the source
		}
	}
}

// runBatch integrates every channel through the first n pre-resolved
// steps, fanning the channels out over the worker pool. Workers share
// only read-only state (the rates/times scratch, the step and transfer
// constants); every mutable array is partitioned by channel, and worker
// k takes the contiguous block of channels [k·C/w, (k+1)·C/w), so two
// workers meet only at the one cache line a block edge may split. Handing
// out single channels instead interleaves neighbours across workers,
// and the pool then ran slower than serial. The serial branch (effective
// workers == 1: explicit Workers==1, a single-core host, or one channel)
// runs on the calling goroutine before the fan-out closure is built,
// keeping that path allocation- and goroutine-free.
func (b *Backend) runBatch(n int) {
	w := b.workers
	if w <= 1 || b.C == 1 {
		for c := 0; c < b.C; c++ {
			b.integrateChannel(c, n)
		}
		return
	}
	sim.FanOut(w, w, func(k int) {
		for c := k * b.C / w; c < (k+1)*b.C/w; c++ {
			b.integrateChannel(c, n)
		}
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
// step's constants st — the engine's kernel. It allocates nothing: all
// state and scratch was sized at New.
//
// The update is exact in dt for the linear flows: playback completions
// and VCR jumps leave a cohort at the competing-exponential fractions in
// st, each download queue drains by the closed-form solution of its
// saturating drain over the step (drainStep), and the quality window
// decays by its exponential factor. The step's arrivals, completions and
// jumps are lumped into the queues' inflow, which drainStep spreads
// evenly over the step.
//
// The step is a row pass over source chunks (cohorts out, feed sums,
// stock sums) and a chunk pass over destination chunks (inflow gathered
// through the split matrix, drain, quality sums) around the peer split.
//
// Every state cell and scalar accumulator sees the operation sequence of
// the unfused reference (per-pass loops and a scatter of completions
// over the positive entries of the split's remainder S), apart from
// added +0 terms that change no value; TestKernelMatchesOracle pins this
// bit for bit.
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
	flow := b.flow[base : base+J][:len(playing)]
	inflow := b.inflow[base : base+J][:len(playing)]
	rowSum := b.rowSum[:len(playing)]
	feed := b.feeds[c]
	completed := feed.completed[:len(playing)]
	jumped := feed.jumped[:len(playing)]

	// External arrivals: chunk 1 with probability α, uniform otherwise.
	arrivals := lambda * dt
	feed.arrivals += arrivals
	if b.cfg.OnArrivals != nil && arrivals > 0 {
		b.cfg.OnArrivals(c, t, arrivals)
	}
	first, rest := arrivals, 0.0
	if J > 1 {
		entry := cfg.EntryFirstChunk
		first = arrivals * entry
		rest = arrivals * (1 - entry) / float64(J-1)
	}

	// Row pass. Completions flow along row j of the transfer matrix (the
	// constant row sum gives the departing remainder) and jumps spread
	// uniformly over the row, both from the step-start cohort; the feed
	// keeps their per-row sums, flow the completions for the gather and
	// inflow the flow of the rows before each chunk (pre).
	// stock and present are the viewer stock before and after the
	// cohorts' outflow; the peer split budgets from their mean. Each
	// accumulator keeps its own index-ordered sequence.
	compFrac, jumpFrac := st.comp, st.jump
	var stock, copies, present, departures, jumpTotal, pre float64
	for j := range playing {
		p := playing[j]
		w := waiting[j]
		stock += p + w
		copies += owners[j]
		comp := p * compFrac
		jump := p * jumpFrac
		out := 0.0
		if comp > 0 {
			leave := comp * (1 - rowSum[j])
			if leave < 0 {
				leave = 0
			}
			departures += leave
			completed[j] += comp
			p -= comp
			out = comp
		}
		if jump > 0 {
			jumpTotal += jump
			jumped[j] += jump
			p -= jump
		}
		playing[j] = p
		flow[j] = out
		inflow[j] = pre
		pre += out
		present += p + w
	}
	// Average fraction of the library a viewer holds: the probability a
	// VCR jump lands on a cached chunk and replays without a download.
	// Uniform jump destinations: a cached one replays at once (perHit),
	// an uncached one queues (perMiss).
	var perHit, perMiss float64
	if jumpTotal > 0 {
		ownedFrac := 0.0
		if stock > 0 {
			ownedFrac = min(copies/(stock*fJ), 1)
		}
		perHit = jumpTotal * ownedFrac / fJ
		perMiss = jumpTotal * (1 - ownedFrac) / fJ
	}

	// Remove the departing viewers' cached copies (each departing viewer
	// holds owners[j]/stock of chunk j on average).
	if departures > 0 && stock > 0 {
		f := min(departures/stock, 1)
		for j := range owners {
			owners[j] -= owners[j] * f
		}
	}

	// Allocate peer uplink for this step (P2P only): the fluid
	// counterpart of the event engine's 30-second rebalance, run every
	// step because it is O(J) when owner counts drift slowly.
	if b.cfg.Mode == sim.P2P {
		b.allocatePeers(c, 0.5*(stock+present))
	}

	// Chunk pass: gather each queue's inflow and serve it. Each chunk
	// drains at the provisioned capacity, bounded by a per-download rate
	// of R (drainStep). Completions move viewers into the playing cohort
	// and add cached copies. The completion inflow comes from the split
	// matrix (gather.sum); its column adds flow[j]·S[j][k] in source order
	// j, the order the reference scatter reaches cell k in, and the terms
	// the scatter skips are +0 (DESIGN.md "Split gather").
	b.gather.sum(inflow, flow)
	served := b.cloudBytesServed[c]
	invDt := st.invDt
	var demandBps, servedBps float64
	for k := range playing {
		in := rest
		if k == 0 {
			in = first
		}
		in += inflow[k]
		in += perMiss

		q0 := waiting[k]
		queue := q0 + in
		if queue <= 0 {
			waiting[k] = 0
			playing[k] += perHit
			continue
		}
		capJ := cloudCap[k] + peerCap[k]
		// drainStep, with its two one-regime cases inlined: the call
		// costs ~5% of BenchmarkFluidStep.
		var drained, backlog float64
		if q0*st.rate < capJ {
			drained = q0*st.qGone + in*st.inGone
			if (queue-drained)*st.rate <= capJ {
				backlog = drained * st.invKdt
			} else {
				drained, backlog = drainRise(q0, in, capJ, st)
			}
		} else {
			drained = capJ * st.dtOverB
			if (queue-drained)*st.rate >= capJ {
				backlog = 0.5 * (q0 + queue - drained)
			} else {
				drained, backlog = drainFall(q0, in, capJ, st)
			}
		}
		bytes := drained * B
		peerShare := min(bytes, peerCap[k]*dt)
		served += bytes - peerShare

		waiting[k] = queue - drained
		playing[k] += drained + perHit
		owners[k] += drained

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

	// Windowed quality: exponential window matching the event engine's
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
// upload) and at most the remaining budget, n×meanUplink. The caller
// passes n as the step's mean viewer stock: the trapezoid of the stock
// at the step start and after completions and jumps left the playing
// cohorts. Either end alone is off by a term proportional to dt, with
// opposite signs — the step-start stock still counts the viewers who
// depart during the step, the later one misses those on their way to a
// queue — and their first-order terms cancel in the mean.
// TestStepConvergence's peak day shows it: at a 3 s step the quality is
// 0.0073 above its dt → 0 estimate when budgeted from the start stock,
// 0.0068 below from the later one, and 0.00013 above from the mean.
//
// A chunk's demand is its step-start queue's download rate, waiting×R.
// The step's inflow is not counted: drainStep spreads it over the step,
// and counting it as if it waited from the step start overstates demand
// by a term that grows with dt.
//
//cloudmedia:hotpath
func (b *Backend) allocatePeers(c int, n float64) {
	J := b.J
	base := c * J
	peerCap := b.peerCap[base : base+J]
	if n <= 0 {
		clear(peerCap)
		return
	}
	waiting := b.waiting[base : base+J][:len(peerCap)]
	owners := b.owners[base : base+J][:len(peerCap)]
	order := b.order[base : base+J]
	R := b.cfg.Channel.VMBandwidth
	mu := b.meanUplink
	budget := n * mu

	if b.cfg.Scheduling == sim.Proportional {
		var total float64
		for j := range peerCap {
			if owners[j] > 0 {
				total += waiting[j] * R
			}
		}
		for j := range peerCap {
			take := 0.0
			if owners[j] > 0 && total > 0 {
				demand := waiting[j] * R
				share := budget * demand / total
				take = min(demand, share, owners[j]*mu)
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
			take = waiting[j] * R
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
	return nil
}

// CloudCapacity returns the channel's provisioned cloud capacity, bytes/s,
// summed over its chunks in index order.
func (b *Backend) CloudCapacity(channel int) (float64, error) {
	if channel < 0 || channel >= b.C {
		return 0, fmt.Errorf("fluid: channel %d outside [0,%d)", channel, b.C)
	}
	var total float64
	for _, v := range b.cloudCap[channel*b.J : (channel+1)*b.J] {
		total += v
	}
	return total, nil
}

// TotalCloudCapacity returns the capacity provisioned across all channels,
// as one index-ordered pass over the flat backing array.
func (b *Backend) TotalCloudCapacity() float64 {
	var total float64
	for _, v := range b.cloudCap {
		total += v
	}
	return total
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
		Time:            b.Now(),
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
