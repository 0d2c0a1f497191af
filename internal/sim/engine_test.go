package sim

import (
	"math"
	"math/rand"
	"testing"

	"cloudmedia/internal/queueing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(func(float64) {}, nil)
	var order []int
	add := func(at float64, id int) {
		if err := e.ScheduleAt(at, func(float64) { order = append(order, id) }); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}
	add(5, 1)
	add(1, 2)
	add(3, 3)
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Errorf("order = %v, want [2 3 1]", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(func(float64) {}, nil)
	var order []int
	for i := 0; i < 5; i++ {
		id := i
		if err := e.ScheduleAt(1, func(float64) { order = append(order, id) }); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}
	e.RunUntil(2)
	for i, id := range order {
		if id != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(func(float64) {}, nil)
	fired := false
	if err := e.ScheduleAt(10, func(float64) { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(5)
	if fired {
		t.Error("event after boundary fired")
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
	e.RunUntil(10)
	if !fired {
		t.Error("event at boundary did not fire")
	}
}

// testChannel is a bare channel with a clock, n viewer slots and m empty
// download pools. Each viewer is mid-playback with its next chunk not yet
// downloaded: its playback-end handler only marks it stalled, which is
// how a test sees that the event fired.
func testChannel(n, m int) *channelState {
	ch := &channelState{}
	ch.clock = newClock(ch, headTimers+m, 10)
	for i := range n {
		ch.slots = append(ch.slots, &user{slot: int32(i), channel: ch, state: statePlaying})
	}
	for i := range m {
		ch.pools = append(ch.pools, &pool{ch: ch, chunk: i})
	}
	return ch
}

// A viewer cancels its play-end by clearing the seq it armed: the clock
// still passes the queued play-end to the channel, which drops it.
// Clearing again, or after the event fired, changes nothing. A disarmed
// timer never fires.
func TestEngineCancel(t *testing.T) {
	ch := testChannel(2, 1)
	c := ch.clock
	for _, u := range ch.slots {
		u.playEndSeq = c.armPlayEnd(u.slot)
	}
	ch.slots[0].playEndSeq = 0
	c.arm(headTimers, 5)
	c.disarm(headTimers)
	if c.laneLen != 2 {
		t.Errorf("lane holds %d after a cancel, want 2", c.laneLen)
	}
	c.RunUntil(20)
	if ch.slots[0].state == stateStalled {
		t.Error("cancelled play-end fired")
	}
	if ch.slots[1].state != stateStalled || ch.slots[1].playEndSeq != 0 {
		t.Error("armed play-end did not fire")
	}
	if p := ch.pools[0]; p.lastUpdate != 0 {
		t.Errorf("the disarmed head fired at %v", p.lastUpdate)
	}
	if n := pending(c); n != 0 {
		t.Errorf("%d events pending after draining, want 0", n)
	}
	ch.slots[0].playEndSeq = 0
	ch.slots[1].playEndSeq = 0
	c.RunUntil(30)
	if c.Now() != 30 {
		t.Errorf("Now = %v, want 30", c.Now())
	}
}

// pending is the number of armed timers and queued play-ends of c,
// cancelled play-ends included.
func pending(c *clock) int {
	n := c.laneLen
	for _, t := range c.timers {
		if t.seq != 0 {
			n++
		}
	}
	return n
}

func TestEngineSchedulePastRejected(t *testing.T) {
	e := NewEngine(func(float64) {}, nil)
	e.RunUntil(10)
	if err := e.ScheduleAt(5, func(float64) {}); err == nil {
		t.Error("scheduling in the past: want error")
	}
	if err := e.ScheduleAt(11, nil); err == nil {
		t.Error("nil fn: want error")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine(func(float64) {}, nil)
	var times []float64
	var chain func(now float64)
	chain = func(now float64) {
		times = append(times, now)
		if now < 3 {
			if err := e.ScheduleAt(now+1, chain); err != nil {
				t.Errorf("ScheduleAt: %v", err)
			}
		}
	}
	if err := e.ScheduleAt(1, chain); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(100)
	if len(times) != 3 || times[0] != 1 || times[2] != 3 {
		t.Errorf("times = %v, want [1 2 3]", times)
	}
	if len(e.queue) != 0 {
		t.Errorf("queued = %d, want 0", len(e.queue))
	}
}

// One steady per-viewer cycle, a playback end that arms the next one, is
// a value event queued on the lane and fired: no per-event object, no
// closure.
func TestSteadyViewerEventCycleAllocatesNothing(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Workload.BaseArrivalRate = 1e-9 // the arrival chain stays a day out
	j := cfg.Channel.Chunks
	cyclic := queueing.NewTransferMatrix(j)
	for i := range cyclic {
		cyclic[i][(i+1)%j] = 1 // never departs
	}
	cfg.Transfer = cyclic
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.channels[0]
	u := ch.newUser(0)
	for i := range u.owned {
		u.owned[i] = true // every chunk cached: playback never waits on a pool
	}
	ch.addUser(u)
	u.beginPlayback(0)
	fires := 0
	cycle := func() {
		ch.clock.RunUntil(ch.clock.Now() + cfg.Channel.ChunkSeconds)
		fires++
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("per-viewer schedule-and-fire cycle allocates %.1f times", allocs)
	}
	if u.playingChunk != fires%j || u.state != statePlaying {
		t.Fatalf("after %d cycles the viewer plays chunk %d in state %d, want chunk %d playing", fires, u.playingChunk, u.state, fires%j)
	}
	if c := ch.clock; c.laneLen != 1 || pending(c) != 2 || c.timers[arrivalTimer].seq == 0 {
		t.Errorf("lane holds %d of %d pending events, want 1 (the next playback end) of 2 (and the arrival)", c.laneLen, pending(c))
	}
}

// A pool whose occupancy never exceeds k keeps one backing array for its
// FIFO, however many downloads pass through it: finished heads are
// compacted away in place, so add's append never reallocates.
func TestPoolFIFOKeepsItsBackingArray(t *testing.T) {
	const k = 4
	cfg := smallConfig(t, ClientServer)
	cfg.Workload.BaseArrivalRate = 1e-9 // the arrival chain stays a day out
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.channels[0]
	p := ch.pools[0]
	p.setCapacity(k*cfg.Channel.VMBandwidth, -1) // every download runs at R
	users := make([]*user, k+1)
	for i := range users {
		users[i] = ch.newUser(0)
	}
	// Adds come just over a k-th of a download apart, so at most k
	// downloads overlap.
	spacing := 1.01 * cfg.Channel.ChunkBytes() / cfg.Channel.VMBandwidth / k
	var backing **download
	for i := range 1000 {
		u := users[i%len(users)]
		if u.dl != nil {
			t.Fatalf("cycle %d: user %d's previous download is still in flight", i, i%len(users))
		}
		u.download = download{user: u}
		u.dl = &u.download
		p.add(u.dl)
		if len(p.active) > k {
			t.Fatalf("cycle %d: %d downloads in flight, want at most %d", i, len(p.active), k)
		}
		if i == k {
			backing = &p.active[:1][0]
		}
		if i > k && &p.active[:1][0] != backing {
			t.Fatalf("cycle %d: the FIFO moved to a new backing array (cap %d)", i, cap(p.active))
		}
		ch.clock.RunUntil(ch.clock.Now() + spacing)
	}
	if cap(p.active) > k {
		t.Errorf("cap(active) = %d after 1000 downloads, want at most %d", cap(p.active), k)
	}
}

// seekCounter joins viewers to a channel whose viewers never depart and
// counts the seeks the channel's jump clock makes each one perform.
type seekCounter struct {
	t      *testing.T
	ch     *channelState
	seeks  map[*user]int
	total  int
	nDt    float64 // ∫ n dt: viewer-seconds watched
	lastAt float64
}

// join adds a viewer holding every chunk, so it plays on without a pool.
func (sc *seekCounter) join() *user {
	sc.account(sc.ch.clock.Now())
	u := sc.ch.newUser(0)
	for i := range u.owned {
		u.owned[i] = true
		sc.ch.owners[i]++
	}
	u.ownedCount = len(u.owned)
	u.join(0)
	return u
}

func (sc *seekCounter) leave(u *user) {
	sc.account(sc.ch.clock.Now())
	u.leave()
}

func (sc *seekCounter) account(now float64) {
	sc.nDt += float64(len(sc.ch.live)) * (now - sc.lastAt)
	sc.lastAt = now
}

// runTo steps the channel to `until` one jump at a time. A seek sets the
// jumper's fetchStart to the jump's instant, and nothing else does
// between joins, so the jumper is the one watching viewer that has it.
func (sc *seekCounter) runTo(until float64) {
	c := sc.ch.clock
	for at := c.timers[jumpTimer].at; at <= until; at = c.timers[jumpTimer].at {
		c.RunUntil(at)
		var jumper *user
		for _, u := range sc.ch.live {
			if u.fetchStart == at {
				if jumper != nil {
					sc.t.Fatalf("two viewers seeked at %v", at)
				}
				jumper = u
			}
		}
		if jumper == nil {
			sc.t.Fatalf("the jump clock fired at %v and nobody seeked", at)
		}
		sc.seeks[jumper]++
		sc.total++
	}
	c.RunUntil(until)
	sc.account(until)
}

// The jump clock makes the channel's viewers seek as n independent
// exponential timers of mean τ would: the seeks over a stretch number
// ∫n dt/τ in expectation (a Poisson count), and they fall uniformly on
// the viewers watching. Phase 1 holds 40 viewers for 40τ. Phase 2 keeps
// 10 of them and churns 30 more through short visits, so n changes 1,200
// times: a clock not re-drawn when a viewer leaves keeps the faster rate
// of the larger audience and seeks too often.
func TestJumpClockRate(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Workload.BaseArrivalRate = 1e-9 // the arrival chain stays a day out
	j := cfg.Channel.Chunks
	cyclic := queueing.NewTransferMatrix(j)
	for i := range cyclic {
		cyclic[i][(i+1)%j] = 1 // never departs
	}
	cfg.Transfer = cyclic
	tau := cfg.Workload.JumpMeanSeconds
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := &seekCounter{t: t, ch: s.channels[0], seeks: map[*user]int{}}
	checkCount := func(phase string, got int, want float64) {
		t.Helper()
		t.Logf("%s: %d seeks, ∫n dt/τ = %.1f", phase, got, want)
		if math.Abs(float64(got)-want) > 4*math.Sqrt(want) {
			t.Errorf("%s: %d seeks, want %.1f ± 4σ (%.1f)", phase, got, want, 4*math.Sqrt(want))
		}
	}

	const n1, keep, churn = 40, 10, 30
	viewers := make([]*user, n1)
	for i := range viewers {
		viewers[i] = sc.join()
	}
	sc.runTo(40 * tau)
	checkCount("phase 1", sc.total, sc.nDt/tau)
	// χ² of the per-viewer counts against uniform, n1−1 degrees of
	// freedom, bounded at its mean plus 4σ.
	var chi2 float64
	mean := float64(sc.total) / n1
	for _, u := range viewers {
		d := float64(sc.seeks[u]) - mean
		chi2 += d * d / mean
	}
	t.Logf("phase 1: χ² = %.1f over %d viewers", chi2, n1)
	if dof := float64(n1 - 1); chi2 > dof+4*math.Sqrt(2*dof) {
		t.Errorf("phase 1: χ² = %.1f over %d viewers, want at most %.1f", chi2, n1, dof+4*math.Sqrt(2*dof))
	}

	for _, u := range viewers[keep:] {
		sc.leave(u)
	}
	total1, nDt1 := sc.total, sc.nDt
	visitors := make([]*user, churn)
	for range 600 {
		for i := range visitors {
			visitors[i] = sc.join()
		}
		sc.runTo(sc.ch.clock.Now() + 0.5)
		for _, u := range visitors {
			sc.leave(u)
		}
		sc.runTo(sc.ch.clock.Now() + 1.5)
	}
	checkCount("phase 2", sc.total-total1, (sc.nDt-nDt1)/tau)
}

// clockBench keeps a clock busy: a fired timer re-arms at now plus an
// exponential delay of its mean, and a fired play-end queues the
// viewer's next one.
type clockBench struct {
	c     *clock
	rng   *rand.Rand
	means []float64
	fired int
}

func (h *clockBench) onTimer(i int) {
	h.fired++
	h.c.arm(i, h.c.Now()+h.rng.ExpFloat64()*h.means[i])
}

func (h *clockBench) onPlayEnd(slot int32, _ uint64) {
	h.fired++
	h.c.armPlayEnd(slot)
}

// BenchmarkChannelClock is one channel of the minute-round control day
// (24 channels, scale 1: J = 8 chunks of 75 s, a 225 s mean jump
// interval, about ten viewers a channel): eight pool-head timers, the
// arrival, the jump clock and ten viewers' play-ends on the lane,
// stepped ten simulated seconds at a time. An op is one firing.
func BenchmarkChannelClock(b *testing.B) {
	const chunks, viewers = 8, 10
	h := &clockBench{rng: rand.New(rand.NewSource(1)), means: make([]float64, headTimers+chunks)}
	h.c = newClock(h, headTimers+chunks, 75)
	h.means[arrivalTimer] = 30
	h.means[jumpTimer] = 225.0 / viewers
	for i := headTimers; i < len(h.means); i++ {
		h.means[i] = 20
	}
	for i := range h.means {
		h.onTimer(i)
	}
	for v := range viewers {
		h.c.RunUntil(float64(v) * 7.5)
		h.c.armPlayEnd(int32(v))
	}
	h.fired = 0
	b.ReportAllocs()
	b.ResetTimer()
	for h.fired < b.N {
		h.c.RunUntil(h.c.Now() + 10)
	}
}
