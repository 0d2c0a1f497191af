package sim

// download is one in-flight chunk transfer. Its progress is tracked
// implicitly through the pool's cumulative work counter: every active
// download in a pool proceeds at the same rate, so the bytes a download has
// received equal pool.workDone − startWork.
type download struct {
	user      *user
	pool      *pool
	startWork float64 // pool.workDone when the download was enrolled
}

// pool is the fluid download queue of one (channel, chunk): its capacity is
// the cloud share plus the peer share, divided processor-style among active
// downloads with a per-download cap of R (one VM's bandwidth).
//
// Because all members share one equal rate and every download needs the
// same chunk size, the completion order is exactly the enrollment order.
// The pool therefore keeps a FIFO of active downloads, tracks one
// cumulative per-download work counter, and schedules a single event for
// the head's completion — O(1) amortized per state change instead of
// rescheduling every member.
//
// A pool belongs to exactly one channel: its events live on the channel's
// engine and its served-byte accounting on the channel's accumulator, so
// parallel channel stepping never shares pool state across workers.
type pool struct {
	ch    *channelState
	chunk int

	cloudCap float64 // Δ, bytes/s provisioned from the cloud
	peerCap  float64 // Γ, bytes/s allocated from peers (P2P mode)

	active     []*download // FIFO: head completes first
	workDone   float64     // cumulative bytes delivered per member download
	rate       float64     // current per-download rate, bytes/s
	lastUpdate float64
	headSeq    uint64 // the armed head-completion event, 0 when none
	headPos    int32  // 1 + the heap index of the queued head entry, 0 when none (Engine.track)
}

// settle advances the pool's work counter to `now`, attributing served
// bytes to peers first and the cloud for the remainder (peers are the
// primary source in P2P VoD; the cloud compensates).
func (p *pool) settle(now float64) {
	dt := now - p.lastUpdate
	if dt <= 0 {
		return
	}
	if p.rate > 0 && len(p.active) > 0 {
		p.workDone += p.rate * dt
		total := p.rate * float64(len(p.active))
		peerServed := total
		if peerServed > p.peerCap {
			peerServed = p.peerCap
		}
		p.ch.cloudBytesServed += (total - peerServed) * dt
	}
	p.lastUpdate = now
}

// remainingOf returns the bytes download d still needs.
func (p *pool) remainingOf(d *download) float64 {
	rem := p.ch.sim.cfg.Channel.ChunkBytes() - (p.workDone - d.startWork)
	if rem < 0 {
		return 0
	}
	return rem
}

// reschedule recomputes the shared rate and re-arms the head-completion
// event, re-keying the queued entry when there is one. Caller must have
// settled first.
func (p *pool) reschedule(now float64) {
	p.headSeq = 0
	n := len(p.active)
	if n == 0 {
		p.rate = 0
		return
	}
	rate := (p.cloudCap + p.peerCap) / float64(n)
	if cap := p.ch.sim.cfg.Channel.VMBandwidth; rate > cap {
		rate = cap
	}
	p.rate = rate
	if rate <= 0 {
		return // starved: resumes when capacity arrives
	}
	at := now + p.remainingOf(p.active[0])/rate
	p.headSeq = p.ch.engine.arm(p.headPos, at, kindHead, int32(p.chunk))
}

// onHeadComplete fires when the oldest download finishes; several members
// can complete in the same instant (identical enrollment times). The head
// always completes — the event was armed for exactly its finish time, so
// float rounding must not leave it re-armed at now+ε forever.
func (p *pool) onHeadComplete() {
	now := p.ch.engine.Now()
	p.headSeq = 0
	p.settle(now)
	if len(p.active) == 0 {
		p.reschedule(now)
		return
	}
	tol := p.ch.sim.cfg.Channel.ChunkBytes() * 1e-9
	// The channel's scratch is free here: completion callbacks only
	// enroll, abort and arm events, and no event fires until this
	// handler returns.
	done := append(p.ch.done[:0], p.active[0])
	for len(done) < len(p.active) && p.remainingOf(p.active[len(done)]) <= tol {
		done = append(done, p.active[len(done)])
	}
	// Compact in place: reslicing the finished head off would walk add's
	// appends through the backing array and reallocate it again and again.
	n := copy(p.active, p.active[len(done):])
	clear(p.active[n:])
	p.active = p.active[:n]
	for _, d := range done {
		d.pool = nil
	}
	p.reschedule(now)
	for _, d := range done {
		d.user.onDownloadComplete(p.chunk)
	}
	clear(done)
	p.ch.done = done[:0]
}

// add enrolls a new download at the FIFO tail (it has the most bytes left).
func (p *pool) add(d *download) {
	now := p.ch.engine.Now()
	p.settle(now)
	d.pool = p
	d.startWork = p.workDone
	p.active = append(p.active, d)
	p.reschedule(now)
}

// remove aborts an in-flight download (seek or departure).
func (p *pool) remove(d *download) {
	now := p.ch.engine.Now()
	p.settle(now)
	for i, other := range p.active {
		if other == d {
			p.active = append(p.active[:i], p.active[i+1:]...)
			break
		}
	}
	d.pool = nil
	p.reschedule(now)
}

// setCapacity updates the cloud and/or peer share (negative leaves a share
// unchanged) and re-splits.
func (p *pool) setCapacity(cloudCap, peerCap float64) {
	now := p.ch.engine.Now()
	p.settle(now)
	if cloudCap >= 0 {
		p.cloudCap = cloudCap
	}
	if peerCap >= 0 {
		p.peerCap = peerCap
	}
	p.reschedule(now)
}
