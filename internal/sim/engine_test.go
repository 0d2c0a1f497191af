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

// An owner cancels its event by clearing the seq it armed: the engine
// skips the event when it pops it, and the event counts in the queue until
// then. Clearing again, or after the event fired, changes nothing.
func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	owners := testOwners(e, 2)
	for _, u := range owners {
		u.playEndSeq = e.arm(1, kindPlayEnd, u.slot)
	}
	owners[0].playEndSeq = 0
	if len(e.queue) != 2 {
		t.Errorf("queued = %d after a cancel, want 2", len(e.queue))
	}
	e.RunUntil(2)
	if owners[0].state == stateStalled {
		t.Error("cancelled event fired")
	}
	if owners[1].state != stateStalled || owners[1].playEndSeq != 0 {
		t.Error("armed event did not fire")
	}
	if len(e.queue) != 0 {
		t.Errorf("queued = %d after draining, want 0", len(e.queue))
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
	if got := len(ch.engine.queue); got != 2 {
		t.Errorf("queued = %d, want 2 (the next playback end and the arrival)", got)
	}
}

// eventHeapDepth is the mean per-channel queue depth of the minute-round
// control day (24 channels, scale 1), sampled at every barrier.
const eventHeapDepth = 38

// BenchmarkEventHeap is the per-viewer event mix at the control day's
// queue depth: each op pops the earliest event, re-arms its owner if the
// event was still armed (a fire) or skips it (a lazily cancelled one),
// and every fourth op cancels an owner's armed event by re-arming it
// elsewhere, leaving the stale entry queued.
func BenchmarkEventHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	armed := make([]uint64, eventHeapDepth)
	for i := range armed {
		armed[i] = e.push(rng.Float64()*100, kindJump, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for op := range b.N {
		ev := e.pop()
		if armed[ev.target] == ev.seq {
			e.now = ev.at
			armed[ev.target] = e.push(e.now+rng.Float64()*100, kindJump, ev.target)
		}
		if op%4 == 0 {
			owner := rng.Intn(eventHeapDepth)
			armed[owner] = e.push(e.now+rng.Float64()*100, kindJump, int32(owner))
		}
	}
}
