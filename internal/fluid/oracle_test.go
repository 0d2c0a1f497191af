package fluid

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/viewing"
)

// oracleKernel is a reference copy of the fluid step kernel in its
// straightforward form: the transfer matrix is split as P = s·(11ᵀ − I)
// + S with s its smallest off-diagonal entry, completions scatter
// through a CSR index of S's positive entries into a completion scratch,
// the share s of every other row's flow joins it from prefix and suffix
// sums after every row's completions, VCR jumps join the inflow in a
// separate pass,
// every queue drains through drainStep, the rarest-first order is
// re-sorted from the identity on every step, and draws use the built-in
// min. The production kernel must reproduce its state bit for bit
// (TestKernelMatchesOracle).
//
// The oracle also keeps the reference feed: the per-step J×J transition
// accumulator and per-row departures of each channel, from which
// refMatrix estimates the transfer matrix the way the feed once did.
// The production feed keeps per-row sums instead, and
// TestFeedMatrixMatchesReference holds its Matrix to this one.
type oracleKernel struct {
	p      queueing.TransferMatrix
	rowSum []float64
	share  float64 // s, the smallest off-diagonal entry
	nzOff  []int   // CSR index of S's positive entries
	nzK    []int
	nzP    []float64

	inWait, inPlay, inComp, flow, demand []float64 // per-step scratch, J each
	ref                                  []refFeed // per channel
}

// refFeed is one channel's reference transition accumulator:
// transitions[i*J+k] is the flow that finished or jumped away from chunk
// i and then fetched k, departures[i] the flow that finished i and left.
type refFeed struct {
	transitions, departures []float64
}

func (r refFeed) reset() {
	clear(r.transitions)
	clear(r.departures)
}

// add accumulates one step's completion and jump flow out of chunk i as
// the kernel's reference does: completions along the positive entries of
// row i, the remainder departing, and jumps uniformly over the row.
func (r refFeed) add(p queueing.TransferMatrix, rowSum float64, i int, comp, jump float64) {
	J := len(p)
	if comp > 0 {
		for k, v := range p[i] {
			if v > 0 {
				r.transitions[i*J+k] += comp * v
			}
		}
		r.departures[i] += max(comp*(1-rowSum), 0)
	}
	if jump > 0 {
		per := jump / float64(J)
		for k := 0; k < J; k++ {
			r.transitions[i*J+k] += per
		}
	}
}

func newOracleKernel(p queueing.TransferMatrix, C int) *oracleKernel {
	J := len(p)
	o := &oracleKernel{
		p:      p,
		rowSum: make([]float64, J),
		nzOff:  make([]int, J+1),
		inWait: make([]float64, J),
		inPlay: make([]float64, J),
		inComp: make([]float64, J),
		flow:   make([]float64, J),
		demand: make([]float64, J),
	}
	for c := 0; c < C; c++ {
		o.ref = append(o.ref, refFeed{make([]float64, J*J), make([]float64, J)})
	}
	// Cells that are not positive count as +0, so a matrix with such a
	// cell off the diagonal has s = 0 and S = P.
	positive := func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}
	if J > 1 {
		o.share = math.Inf(1)
	}
	for j := 0; j < J; j++ {
		for k := 0; k < J; k++ {
			if v := positive(p[j][k]); k != j && v < o.share {
				o.share = v
			}
		}
	}
	for j := 0; j < J; j++ {
		o.nzOff[j] = len(o.nzK)
		for k := 0; k < J; k++ {
			v := positive(p[j][k])
			o.rowSum[j] += v
			if k != j {
				v -= o.share
			}
			if v > 0 {
				o.nzK = append(o.nzK, k)
				o.nzP = append(o.nzP, v)
			}
		}
	}
	o.nzOff[J] = len(o.nzK)
	return o
}

// stepChannel is the reference per-channel step of length dt. It derives
// the step's constants itself, as New's callers' steps do.
func (o *oracleKernel) stepChannel(b *Backend, c int, t, dt, lambda float64) {
	cfg := b.cfg.Channel
	st := newStep(dt, cfg, b.cfg.Workload.JumpMeanSeconds)
	J := b.J
	base := c * J
	T0 := cfg.ChunkSeconds
	B := cfg.ChunkBytes()
	fJ := float64(J)

	playing := b.playing[base : base+J]
	waiting := b.waiting[base : base+J]
	owners := b.owners[base : base+J]
	cloudCap := b.cloudCap[base : base+J]
	peerCap := b.peerCap[base : base+J]
	inWait := o.inWait
	inPlay := o.inPlay
	inComp := o.inComp
	flow := o.flow
	feed := b.feeds[c]
	ref := o.ref[c]

	var stock, copies float64
	for j := 0; j < J; j++ {
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
	// otherwise.
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
		for j := 1; j < J; j++ {
			inWait[j] = rest
			inPlay[j] = 0
		}
	}

	// 2. Playback completions along S's live entries, the remainder
	// departing; 3. VCR jumps from the same step-start cohort, spread
	// uniformly over the transition row.
	var departures, jumpTotal float64
	for k := 0; k < J; k++ {
		inComp[k] = 0
		flow[k] = 0
	}
	for j := 0; j < J; j++ {
		p := playing[j]
		comp := p * st.comp
		jump := p * st.jump
		ref.add(o.p, o.rowSum[j], j, comp, jump)
		if comp > 0 {
			flow[j] = comp
			for i := o.nzOff[j]; i < o.nzOff[j+1]; i++ {
				inComp[o.nzK[i]] += comp * o.nzP[i]
			}
			leave := comp * (1 - o.rowSum[j])
			if leave < 0 {
				leave = 0
			}
			departures += leave
			p -= comp
		}
		if jump > 0 {
			jumpTotal += jump
			p -= jump
		}
		playing[j] = p
	}
	// The share s of every other row's completions, from the flow of the
	// rows before k, summed forward, and after it, summed backward.
	for k := 0; k < J; k++ {
		pre, suf := 0.0, 0.0
		for j := 0; j < k; j++ {
			pre += flow[j]
		}
		for j := J - 1; j > k; j-- {
			suf += flow[j]
		}
		inComp[k] += o.share * (pre + suf)
		inWait[k] += inComp[k]
	}
	if jumpTotal > 0 {
		perHit := jumpTotal * ownedFrac / fJ
		perMiss := jumpTotal * (1 - ownedFrac) / fJ
		for k := 0; k < J; k++ {
			inPlay[k] += perHit
			inWait[k] += perMiss
		}
	}

	// 4. Remove the departing viewers' cached copies.
	if departures > 0 && stock > 0 {
		f := departures / stock
		if f > 1 {
			f = 1
		}
		for j := 0; j < J; j++ {
			owners[j] -= owners[j] * f
		}
	}

	// 5. Allocate peer uplink (P2P only), budgeted from the mean of the
	// step-start stock and the stock the cohorts' outflow left.
	if b.cfg.Mode == sim.P2P {
		o.allocatePeers(b, c, 0.5*(stock+b.channelUsers(c)))
	}

	// 6. Serve the download queues in closed form.
	served := b.cloudBytesServed[c]
	var demandBps, servedBps float64
	for j := 0; j < J; j++ {
		queue := waiting[j] + inWait[j]
		if queue <= 0 {
			waiting[j] = 0
			playing[j] += inPlay[j]
			continue
		}
		capJ := cloudCap[j] + peerCap[j]
		drained, backlog := drainStep(waiting[j], inWait[j], capJ, &st)
		bytes := drained * B
		served += bytes - min(bytes, peerCap[j]*dt)

		waiting[j] = queue - drained
		playing[j] += drained + inPlay[j]
		owners[j] += drained

		need := (inWait[j]*st.invDt + backlog/T0) * B
		demandBps += need
		servedBps += min(need, capJ)
	}
	b.cloudBytesServed[c] = served

	// 7. Windowed quality.
	instant := 1.0
	if demandBps > 0 {
		instant = servedBps / demandBps
	}
	b.smooth[c] += st.window * (instant - b.smooth[c])
}

// allocatePeers is the reference rarest-first / proportional split of
// the budget of n viewers' uplink: a cold stable insertion sort from the
// identity order every step, and the built-in three-way min.
func (o *oracleKernel) allocatePeers(b *Backend, c int, n float64) {
	J := b.J
	base := c * J
	peerCap := b.peerCap[base : base+J]
	if n <= 0 {
		for j := 0; j < J; j++ {
			peerCap[j] = 0
		}
		return
	}
	waiting := b.waiting[base : base+J]
	owners := b.owners[base : base+J]
	demand := o.demand
	order := b.order[base : base+J]
	R := b.cfg.Channel.VMBandwidth
	budget := n * b.meanUplink
	for j := 0; j < J; j++ {
		demand[j] = waiting[j] * R
	}

	if b.cfg.Scheduling == sim.Proportional {
		var total float64
		for j := 0; j < J; j++ {
			if owners[j] > 0 {
				total += demand[j]
			}
		}
		for j := 0; j < J; j++ {
			take := 0.0
			if owners[j] > 0 && total > 0 {
				share := budget * demand[j] / total
				take = min(demand[j], share, owners[j]*b.meanUplink)
			}
			peerCap[j] = take
		}
		return
	}

	for j := range order {
		order[j] = j
	}
	// Allocation-free stable insertion sort: this runs every integration
	// step, so it must stay off the garbage collector (mirrors
	// sim.sortByOwners).
	for i := 1; i < J; i++ {
		v := order[i]
		k := i - 1
		for k >= 0 && owners[order[k]] > owners[v] {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = v
	}
	for _, j := range order {
		take := 0.0
		if owners[j] > 0 && budget > 0 {
			take = min(demand[j], budget, owners[j]*b.meanUplink)
		}
		peerCap[j] = take
		budget -= take
	}
}

// randomTransfer draws a J×J substochastic matrix whose rows mix the
// shapes the kernel branches on: all-zero rows (every viewer departs),
// sparse rows, dense rows, and rows summing to exactly 1 up to rounding
// (no departure remainder, exercising the leave clamp).
func randomTransfer(rng *rand.Rand, J int) queueing.TransferMatrix {
	p := queueing.NewTransferMatrix(J)
	for j := 0; j < J; j++ {
		shape := rng.IntN(4)
		if shape == 0 {
			continue
		}
		var sum float64
		for k := 0; k < J; k++ {
			if shape == 1 && rng.IntN(3) != 0 {
				continue
			}
			p[j][k] = rng.Float64()
			sum += p[j][k]
		}
		if sum == 0 {
			continue
		}
		scale := 1.0
		if shape != 3 {
			scale = 0.05 + 0.9*rng.Float64()
		}
		for k := 0; k < J; k++ {
			p[j][k] *= scale / sum
		}
	}
	return p
}

// denseTransfer draws a J×J substochastic matrix with every cell
// positive, so its off-diagonal minimum, the split's share, is positive
// and its remainder S is dense but for the minimum's cell.
func denseTransfer(rng *rand.Rand, J int) queueing.TransferMatrix {
	p := queueing.NewTransferMatrix(J)
	for j := 0; j < J; j++ {
		var sum float64
		for k := 0; k < J; k++ {
			p[j][k] = 0.01 + rng.Float64()
			sum += p[j][k]
		}
		scale := 0.05 + 0.95*rng.Float64()
		for k := 0; k < J; k++ {
			p[j][k] *= scale / sum
		}
	}
	return p
}

// jumpPriorTransfer draws the matrix every stack run passes the engine,
// viewing.SequentialWithJumps, at a random continuation and jump
// probability: one jump share off the diagonal plus a sequential band.
func jumpPriorTransfer(rng *rand.Rand, J int) queueing.TransferMatrix {
	p, err := viewing.SequentialWithJumps(J, rng.Float64(), rng.Float64())
	if err != nil {
		panic(err)
	}
	return p
}

// transferKinds are the matrix families the oracle and gather cases draw
// from: random substochastic rows (mostly an off-diagonal minimum of 0,
// so the split's share is 0 and S = P), dense rows (a positive share and
// a dense S) and the jump prior (a positive share and a one-band S).
var transferKinds = []struct {
	name string
	draw func(rng *rand.Rand, J int) queueing.TransferMatrix
}{
	{"random", randomTransfer},
	{"dense", denseTransfer},
	{"jump-prior", jumpPriorTransfer},
}

// kernelPair is one scenario stepped by the production kernel (fast) and
// by the oracle (ref) from identical starting states.
type kernelPair struct {
	fast, ref *Backend
	oracle    *oracleKernel
}

func newKernelPair(t *testing.T, rng *rand.Rand, J, kind int, mode sim.Mode, sched sim.PeerScheduling, zeroCap bool) kernelPair {
	t.Helper()
	chCfg := testutil.ChannelConfig(J, 20+80*rng.Float64())
	chCfg.VMBandwidth = 100e3 + 400e3*rng.Float64()
	if J == 1 {
		chCfg.EntryFirstChunk = 1
	}
	cfg := sim.Config{
		Mode:       mode,
		Channel:    chCfg,
		Workload:   testutil.FlatWorkload(3, 1, 60+600*rng.Float64()),
		Transfer:   transferKinds[kind].draw(rng, J),
		Scheduling: sched,
		Seed:       1,
	}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kp := kernelPair{fast: fast, ref: ref, oracle: newOracleKernel(cfg.Transfer, fast.C)}
	if !zeroCap {
		kp.setCaps(t, rng)
	}
	return kp
}

// setCaps provisions random per-chunk capacities on both backends, a
// quarter of them zero.
func (kp kernelPair) setCaps(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for c := 0; c < kp.fast.C; c++ {
		for j := 0; j < kp.fast.J; j++ {
			v := 0.0
			if rng.IntN(4) != 0 {
				v = 2e6 * rng.Float64()
			}
			if err := kp.fast.SetCloudCapacity(c, j, v); err != nil {
				t.Fatal(err)
			}
			if err := kp.ref.SetCloudCapacity(c, j, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// tieOwners rounds every cached-copy count on both backends to a coarse
// grid, so later rarest-first sorts see ties between non-zero counts.
func (kp kernelPair) tieOwners() {
	for i, v := range kp.fast.owners {
		v = float64(int(v/4)) * 4
		kp.fast.owners[i] = v
		kp.ref.owners[i] = v
	}
}

// compare fails on the first state array whose bits differ. order is
// state, since both kernels keep it across steps and must agree on the
// sorted permutation. The feed's transition sums are not: the oracle
// keeps the reference J×J accumulator instead, and compareMatrix holds
// the two estimates to each other.
func (kp kernelPair) compare(t *testing.T, step int) {
	t.Helper()
	f, r := kp.fast, kp.ref
	for _, a := range []struct {
		name     string
		got, ref []float64
	}{
		{"playing", f.playing, r.playing},
		{"waiting", f.waiting, r.waiting},
		{"owners", f.owners, r.owners},
		{"peerCap", f.peerCap, r.peerCap},
		{"cloudBytesServed", f.cloudBytesServed, r.cloudBytesServed},
		{"smooth", f.smooth, r.smooth},
	} {
		if !testutil.SameBits(a.got, a.ref) {
			t.Fatalf("step %d: %s = %v, oracle %v", step, a.name, a.got, a.ref)
		}
	}
	for i, v := range f.order {
		if r.order[i] != v {
			t.Fatalf("step %d: order = %v, oracle %v", step, f.order, r.order)
		}
	}
	for c := range f.feeds {
		if !testutil.SameBits([]float64{f.feeds[c].arrivals}, []float64{r.feeds[c].arrivals}) {
			t.Fatalf("step %d channel %d: arrivals differ from the oracle", step, c)
		}
	}
}

// compareMatrix holds every channel's feed.Matrix to the matrix the
// oracle's reference accumulator estimates.
func (kp kernelPair) compareMatrix(t *testing.T, step int) {
	t.Helper()
	J := kp.fast.J
	fallback := distinctFallback(J)
	for c, f := range kp.fast.feeds {
		got, err := f.Matrix(fallback)
		if err != nil {
			t.Fatal(err)
		}
		want, totals := refMatrix(kp.oracle.ref[c], J, fallback)
		if msg := matrixMismatch(got, want, totals, fallback); msg != "" {
			t.Fatalf("step %d channel %d: %s", step, c, msg)
		}
	}
}

// oracleMode is one peer mode the oracle cases cover.
type oracleMode struct {
	name  string
	mode  sim.Mode
	sched sim.PeerScheduling
}

var oracleModes = []oracleMode{
	{"rarest", sim.P2P, sim.RarestFirst},
	{"proportional", sim.P2P, sim.Proportional},
	{"client-server", sim.ClientServer, sim.RarestFirst},
}

// forEachOracleCase runs every oracle scenario — every transferKinds
// family (sparse, dense and all-zero rows, a positive or zero split
// share, the jump prior), chunk counts from 1 to 20, owner ties at zero
// (the empty start) and later ties, rarest-first, proportional and
// client-server (no peer step) modes, zero capacity, mid-run capacity
// changes and feed resets, at full and partial steps — stepping the
// production kernel and the oracle alike, and calls check after every
// step.
func forEachOracleCase(t *testing.T, check func(kp kernelPair, t *testing.T, step int)) {
	for _, J := range []int{1, 2, 3, 8, 20} {
		for _, m := range oracleModes {
			for _, zeroCap := range []bool{false, true} {
				name := fmt.Sprintf("J=%d/%s/zeroCap=%v", J, m.name, zeroCap)
				t.Run(name, func(t *testing.T) {
					for kind := range transferKinds {
						t.Run(transferKinds[kind].name, func(t *testing.T) {
							rng := rand.New(rand.NewPCG(uint64(J), uint64(len(name)+kind)))
							runOracleCase(t, rng, J, kind, m, zeroCap, 240, check)
						})
					}
				})
			}
		}
	}
}

// runOracleCase steps one oracle scenario drawn from rng, with a matrix
// of transferKinds[kind], for the given number of steps, calling check
// after each: mostly full steps and some partial ones, with feed resets,
// capacity changes and owner ties between them.
func runOracleCase(t *testing.T, rng *rand.Rand, J, kind int, m oracleMode, zeroCap bool, steps int, check func(kp kernelPair, t *testing.T, step int)) {
	t.Helper()
	kp := newKernelPair(t, rng, J, kind, m.mode, m.sched, zeroCap)
	now := 0.0
	for s := 0; s < steps; s++ {
		// Mostly full steps, and partial ones as a barrier cuts them.
		dt := kp.fast.step
		if rng.IntN(3) == 0 {
			dt *= 1 - rng.Float64()
		}
		st := newStep(dt, kp.fast.cfg.Channel, kp.fast.cfg.Workload.JumpMeanSeconds)
		for c := 0; c < kp.fast.C; c++ {
			lambda := 0.0
			if rng.IntN(5) != 0 {
				lambda = 5 * rng.Float64()
			}
			kp.fast.stepChannel(c, now, lambda, &st)
			kp.oracle.stepChannel(kp.ref, c, now, dt, lambda)
		}
		now += dt
		check(kp, t, s)
		switch {
		case s%60 == 59:
			for c := range kp.fast.feeds {
				kp.fast.feeds[c].Reset()
				kp.ref.feeds[c].Reset()
				kp.oracle.ref[c].reset()
			}
		case s%50 == 49 && !zeroCap:
			kp.setCaps(t, rng)
		case s%40 == 39:
			kp.tieOwners()
		}
	}
}

// TestKernelMatchesOracle drives the production kernel and the oracle
// through the same seeded steps and requires every state array and the
// feed's arrivals to agree bit for bit after each one.
func TestKernelMatchesOracle(t *testing.T) {
	forEachOracleCase(t, kernelPair.compare)
}

// TestFeedMatrixMatchesReference holds the feed's estimated transfer
// matrix, rebuilt from per-row completion and jump sums, to the one the
// reference J×J accumulator gives, after every step of every oracle
// case: within feedMatrixTol per cell, with the same fallback choice on
// every row.
func TestFeedMatrixMatchesReference(t *testing.T) {
	forEachOracleCase(t, kernelPair.compareMatrix)
}

// FuzzKernelMatchesOracle holds the production kernel to the oracle bit
// for bit on fuzzed oracle cases: J = 1…20 chunks, the matrix family, the
// peer mode and scheduling, zero capacity and the seed of the case's
// matrix, rates, capacities and step lengths, over 60 steps of the
// oracle case loop.
func FuzzKernelMatchesOracle(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), false, uint64(1), uint64(2))
	f.Add(uint8(0), uint8(1), uint8(1), true, uint64(3), uint64(4))
	f.Add(uint8(19), uint8(2), uint8(2), false, uint64(5), uint64(6))
	f.Fuzz(func(t *testing.T, jSel, kindSel, modeSel uint8, zeroCap bool, seed1, seed2 uint64) {
		J := 1 + int(jSel)%20
		kind := int(kindSel) % len(transferKinds)
		m := oracleModes[int(modeSel)%len(oracleModes)]
		runOracleCase(t, rand.New(rand.NewPCG(seed1, seed2)), J, kind, m, zeroCap, 60, kernelPair.compare)
	})
}
