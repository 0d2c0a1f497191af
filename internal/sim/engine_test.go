package sim

import (
	"math/rand"
	"testing"

	"cloudmedia/internal/queueing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	add := func(at float64, id int) {
		if err := e.Schedule(at, func() { order = append(order, id) }); err != nil {
			t.Fatalf("Schedule: %v", err)
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
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		id := i
		if err := e.Schedule(1, func() { order = append(order, id) }); err != nil {
			t.Fatalf("Schedule: %v", err)
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
	e := NewEngine()
	fired := false
	if err := e.Schedule(10, func() { fired = true }); err != nil {
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

// testOwners attaches a bare channel with n viewer slots to e, so tests
// can arm per-viewer events. Each viewer is mid-playback with its next
// chunk not yet downloaded: its playback-end handler only marks it
// stalled, which is how a test sees that the event fired.
func testOwners(e *Engine, n int) []*user {
	ch := &channelState{engine: e}
	e.ch = ch
	for i := range n {
		ch.slots = append(ch.slots, &user{slot: int32(i), channel: ch, state: statePlaying})
	}
	return ch.slots
}

// queued is the number of entries on the engine's heap and lane,
// cancelled ones included.
func queued(e *Engine) int { return len(e.queue) + e.laneLen }

// An owner cancels its event by clearing the seq it armed: the engine
// skips the event when it pops it, and the event counts in the queue until
// then. Clearing again, or after the event fired, changes nothing.
func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	owners := testOwners(e, 2)
	for _, u := range owners {
		u.playEndSeq = e.armPlayEnd(1, u.slot)
	}
	owners[0].playEndSeq = 0
	if e.laneLen != 2 || len(e.queue) != 0 {
		t.Errorf("lane holds %d and heap %d after a cancel, want 2 and 0", e.laneLen, len(e.queue))
	}
	e.RunUntil(2)
	if owners[0].state == stateStalled {
		t.Error("cancelled event fired")
	}
	if owners[1].state != stateStalled || owners[1].playEndSeq != 0 {
		t.Error("armed event did not fire")
	}
	if n := queued(e); n != 0 {
		t.Errorf("queued = %d after draining, want 0", n)
	}
	owners[0].playEndSeq = 0
	owners[1].playEndSeq = 0
	e.RunUntil(3)
}

func TestEngineSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	if err := e.Schedule(5, func() {}); err == nil {
		t.Error("scheduling in the past: want error")
	}
	if err := e.Schedule(11, nil); err == nil {
		t.Error("nil fn: want error")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var times []float64
	var chain func()
	chain = func() {
		times = append(times, e.Now())
		if e.Now() < 3 {
			if err := e.Schedule(e.Now()+1, chain); err != nil {
				t.Errorf("Schedule: %v", err)
			}
		}
	}
	if err := e.Schedule(1, chain); err != nil {
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
// a value event pushed and popped: no per-event object, no closure.
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
		ch.engine.RunUntil(ch.engine.Now() + cfg.Channel.ChunkSeconds)
		fires++
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("per-viewer schedule-and-fire cycle allocates %.1f times", allocs)
	}
	if u.playingChunk != fires%j || u.state != statePlaying {
		t.Fatalf("after %d cycles the viewer plays chunk %d in state %d, want chunk %d playing", fires, u.playingChunk, u.state, fires%j)
	}
	if ch.engine.laneLen != 1 || len(ch.engine.queue) != 1 {
		t.Errorf("lane holds %d and heap %d, want 1 (the next playback end) and 1 (the arrival)", ch.engine.laneLen, len(ch.engine.queue))
	}
}

// A pool re-arms its head on every change of membership or capacity.
// Each re-arm re-keys the queued entry, so a thousand of them leave one
// head entry queued, and it fires once, when the download completes.
func TestPoolHeadRearmsInPlace(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Workload.BaseArrivalRate = 1e-9 // the arrival chain stays a day out
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.channels[0]
	u := ch.newUser(0)
	u.download = download{user: u}
	u.dl = &u.download
	p := ch.pools[0]
	p.add(u.dl)
	bw := cfg.Channel.VMBandwidth
	for i := range 1000 {
		p.setCapacity(bw*(1+float64(i%7)), -1)
	}
	heads := 0
	for _, ev := range ch.engine.queue {
		if ev.kind == kindHead {
			heads++
		}
	}
	if heads != 1 || len(ch.engine.queue) != 2 {
		t.Fatalf("heap holds %d head entries of %d, want 1 of 2 (the head and the arrival)", heads, len(ch.engine.queue))
	}
	ch.engine.RunUntil(ch.engine.Now() + cfg.Channel.ChunkSeconds)
	if u.dl != nil || p.headPos != 0 || len(ch.engine.queue) != 1 {
		t.Fatalf("after the completion: download %v, head position %d, %d queued; want nil, 0 and the arrival", u.dl, p.headPos, len(ch.engine.queue))
	}
}

// eventHeapDepth is the mean per-channel queue depth of the minute-round
// control day (24 channels, scale 1), sampled at every barrier.
const eventHeapDepth = 38

// BenchmarkEventHeap is the per-viewer event mix at the control day's
// queue depth: each op pops the earliest event and re-arms its owner (a
// fire), and every fourth op re-arms an owner's queued event elsewhere,
// which re-keys the entry in place, so no cancelled entry is ever
// queued.
func BenchmarkEventHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	owners := testOwners(e, eventHeapDepth)
	for _, u := range owners {
		u.jumpSeq = e.arm(u.jumpPos, rng.Float64()*100, kindJump, u.slot)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for op := range b.N {
		ev := e.pop()
		if u := owners[ev.target]; u.jumpSeq == ev.seq {
			e.now = ev.at
			u.jumpSeq = e.arm(u.jumpPos, e.now+rng.Float64()*100, kindJump, u.slot)
		}
		if op%4 == 0 {
			u := owners[rng.Intn(eventHeapDepth)]
			u.jumpSeq = e.arm(u.jumpPos, e.now+rng.Float64()*100, kindJump, u.slot)
		}
	}
}

// A departed viewer's jump entry stays queued, cancelled. The next viewer
// in its slot takes the entry over with its first jump instead of
// pushing a second one.
func TestReusedSlotTakesOverJumpEntry(t *testing.T) {
	cfg := smallConfig(t, ClientServer)
	cfg.Workload.BaseArrivalRate = 1e-9 // the arrival chain stays a day out
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := s.channels[0]
	u := ch.newUser(0)
	u.join(0)
	u.leave()
	v := ch.newUser(0)
	if v != u {
		t.Fatal("the departed viewer's slot was not reused")
	}
	v.join(0)
	jumps := 0
	for _, ev := range ch.engine.queue {
		if ev.kind == kindJump && ev.target == v.slot {
			jumps++
		}
	}
	if jumps != 1 || v.jumpPos == 0 || ch.engine.queue[v.jumpPos-1].seq != v.jumpSeq {
		t.Fatalf("slot %d has %d jump entries queued (position %d), want its one armed entry", v.slot, jumps, v.jumpPos)
	}
}

// Over a busy P2P simulation, where pools re-arm their heads and viewers
// their jumps from inside the handlers that fire them, every queued head
// and jump entry stays where its owner records it.
func TestOwnerPositionsStayExact(t *testing.T) {
	cfg := smallConfig(t, P2P)
	cfg.Workload.BaseArrivalRate = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Channels(); c++ {
		for i := 0; i < cfg.Channel.Chunks; i++ {
			if err := s.SetCloudCapacity(c, i, cfg.Channel.PlaybackRate*float64(1+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 1; step <= 240; step++ {
		s.RunUntil(float64(step) * 15)
		for _, ch := range s.channels {
			checkPositions(t, step, ch.engine)
		}
	}
	if s.channels[0].engine.seq < 10000 {
		t.Fatalf("only %d events armed on channel 0: the run is too quiet to test anything", s.channels[0].engine.seq)
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
		ch.engine.RunUntil(ch.engine.Now() + spacing)
	}
	if cap(p.active) > k {
		t.Errorf("cap(active) = %d after 1000 downloads, want at most %d", cap(p.active), k)
	}
}
