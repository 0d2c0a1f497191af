package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the engine's queue modelled on container/heap: *refEvent
// closures with a cancelled flag and an index the heap keeps current,
// plus a FIFO slice for the play-end lane. It is the oracle the engine
// must match step for step.
type refEngine struct {
	now   float64
	seq   uint64
	queue refHeap
	lane  []*refEvent
}

type refEvent struct {
	at       float64
	seq      uint64
	canceled bool
	fn       func()
	index    int // position in queue, -1 once popped or when on the lane
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	e, _ := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (a *refEvent) before(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) newEvent(at float64, fn func()) (*refEvent, error) {
	if at < e.now {
		return nil, fmt.Errorf("schedule at %v before now %v", at, e.now)
	}
	e.seq++
	return &refEvent{at: at, seq: e.seq, fn: fn, index: -1}, nil
}

func (e *refEngine) schedule(at float64, fn func()) (*refEvent, error) {
	ev, err := e.newEvent(at, fn)
	if err == nil {
		heap.Push(&e.queue, ev)
	}
	return ev, err
}

// scheduleLane queues a play-end: on the lane unless it is earlier than
// the lane's tail, on the heap then.
func (e *refEngine) scheduleLane(at float64, fn func()) (*refEvent, error) {
	ev, err := e.newEvent(at, fn)
	if err != nil {
		return nil, err
	}
	if n := len(e.lane); n > 0 && at < e.lane[n-1].at {
		heap.Push(&e.queue, ev)
	} else {
		e.lane = append(e.lane, ev)
	}
	return ev, nil
}

// rekey moves the queued heap event ev to `at` with the next seq, live
// again if it was cancelled.
func (e *refEngine) rekey(ev *refEvent, at float64) error {
	if at < e.now {
		return fmt.Errorf("schedule at %v before now %v", at, e.now)
	}
	e.seq++
	ev.at, ev.seq, ev.canceled = at, e.seq, false
	heap.Fix(&e.queue, ev.index)
	return nil
}

// laneFirst reports whether the lane's head is the earliest queued event.
func (e *refEngine) laneFirst() bool {
	return len(e.lane) > 0 && (len(e.queue) == 0 || e.lane[0].before(e.queue[0]))
}

func (e *refEngine) runUntil(until float64) {
	for {
		var ev *refEvent
		switch {
		case e.laneFirst() && e.lane[0].at <= until:
			ev, e.lane = e.lane[0], e.lane[1:]
		case !e.laneFirst() && len(e.queue) > 0 && e.queue[0].at <= until:
			ev, _ = heap.Pop(&e.queue).(*refEvent)
		}
		if ev == nil {
			break
		}
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
	}
	if until > e.now {
		e.now = until
	}
}

func (e *refEngine) nextAt() (float64, bool) {
	switch {
	case e.laneFirst():
		return e.lane[0].at, true
	case len(e.queue) > 0:
		return e.queue[0].at, true
	}
	return 0, false
}

func (e *refEngine) queued() int { return len(e.queue) + len(e.lane) }

// oracleOwners is the number of owners of each per-viewer kind the
// harness arms events for: viewers arming play-ends, owners 0 to
// oracleOwners−1, and pools arming head completions, owners oracleOwners
// to 2·oracleOwners−1.
const oracleOwners = 6

// isPool reports whether harness owner o is a pool.
func isPool(o int) bool { return o >= oracleOwners }

// oracleSide is one engine under the harness. Closure events log their
// id when they fire; per-viewer owners hold at most one armed event
// each, and their firings are collected into the log (as -1-owner, in
// owner order) before each closure runs and after each step, so the log
// shows which owners fired between two closures.
type oracleSide struct {
	log    []int
	budget int
	errs   int
	now    func() float64
	sched  func(at float64, fn func()) error
	// arm arms the owner's event at `at`, replacing any event it had
	// armed, and reports false when `at` lies in the past; cancel clears
	// the owner's armed event; fired lists and resets the owners whose
	// event fired since the last call, in owner order.
	arm    func(owner int, at float64) bool
	cancel func(owner int)
	fired  func() []int
}

func (s *oracleSide) collect() {
	for _, o := range s.fired() {
		s.log = append(s.log, -1-o)
	}
}

// add schedules closure event id at `at`. Every third event chains a
// follow-up at the same or a later time when it fires, so closures are
// also scheduled from inside callbacks, ties included.
func (s *oracleSide) add(id int, at float64) {
	fn := func() {
		s.collect()
		s.log = append(s.log, id)
		if id%3 == 0 && s.budget > 0 {
			s.budget--
			if err := s.sched(s.now()+float64(s.budget%4)*0.5, func() { s.collect(); s.log = append(s.log, 1<<20) }); err != nil {
				s.errs++
			}
		}
	}
	if err := s.sched(at, fn); err != nil {
		s.errs++
	}
}

func (s *oracleSide) armOwner(owner int, at float64) {
	if !s.arm(owner, at) {
		s.errs++
	}
}

// testPools adds n empty download pools to e's channel (see testOwners),
// so tests can arm head completions. A pool's completion handler finds
// no download and only clears its armed seq, which is how a test sees
// that the event fired.
func testPools(e *Engine, n int) []*pool {
	for i := range n {
		e.ch.pools = append(e.ch.pools, &pool{ch: e.ch, chunk: i})
	}
	return e.ch.pools
}

// newEngineSide drives the owners the way the simulator does: a viewer
// arms its play-end through the lane and a pool its head by re-keying;
// an owner keeps the seq it armed (a failed arm keeps the old one), and
// clears it to cancel.
func newEngineSide(e *Engine) *oracleSide {
	viewers := testOwners(e, oracleOwners)
	pools := testPools(e, oracleOwners)
	armed := make([]bool, oracleOwners)
	return &oracleSide{
		budget: 200,
		now:    e.Now,
		sched:  e.Schedule,
		arm: func(o int, at float64) bool {
			if isPool(o) {
				p := pools[o-oracleOwners]
				seq := e.arm(p.headPos, at, kindHead, int32(p.chunk))
				if seq != 0 {
					p.headSeq, armed[p.chunk] = seq, true
				}
				return seq != 0
			}
			seq := e.armPlayEnd(at, int32(o))
			if seq != 0 {
				viewers[o].playEndSeq = seq
			}
			return seq != 0
		},
		cancel: func(o int) {
			if isPool(o) {
				pools[o-oracleOwners].headSeq, armed[o-oracleOwners] = 0, false
				return
			}
			viewers[o].playEndSeq = 0
		},
		fired: func() []int {
			var out []int
			for o, u := range viewers {
				if u.state == stateStalled {
					out = append(out, o)
					u.state = statePlaying
				}
			}
			for i, p := range pools {
				if armed[i] && p.headSeq == 0 {
					out = append(out, oracleOwners+i)
					armed[i] = false
				}
			}
			return out
		},
	}
}

// newRefSide gives each owner a handle on its armed reference event. A
// viewer cancels through the handle's flag and arms a new event; a pool
// cancels through the flag too but keeps the handle, and re-keys the
// handle's event while it is queued.
func newRefSide(e *refEngine) *oracleSide {
	armed := make([]*refEvent, 2*oracleOwners)
	hit := make([]bool, 2*oracleOwners)
	return &oracleSide{
		budget: 200,
		now:    func() float64 { return e.now },
		sched: func(at float64, fn func()) error {
			_, err := e.schedule(at, fn)
			return err
		},
		arm: func(o int, at float64) bool {
			if isPool(o) && armed[o] != nil && armed[o].index >= 0 {
				return e.rekey(armed[o], at) == nil
			}
			fire := func() { hit[o] = true }
			schedule := e.scheduleLane
			if isPool(o) {
				schedule = e.schedule
			}
			ev, err := schedule(at, fire)
			if err != nil {
				return false
			}
			if armed[o] != nil {
				armed[o].canceled = true
			}
			armed[o] = ev
			return true
		},
		cancel: func(o int) {
			if armed[o] != nil {
				armed[o].canceled = true
			}
		},
		fired: func() []int {
			var out []int
			for o := range hit {
				if hit[o] {
					out = append(out, o)
					hit[o] = false
				}
			}
			return out
		},
	}
}

// checkPositions verifies the heap positions the owners keep: every
// queued pool head and jump entry is where its pool or viewer slot says,
// and every owner that says it has one has it there, so no owner has two.
func checkPositions(t *testing.T, step int, e *Engine) {
	t.Helper()
	posOf := func(ev event) (int32, bool) {
		switch ev.kind {
		case kindHead:
			return e.ch.pools[ev.target].headPos, true
		case kindJump:
			return e.ch.slots[ev.target].jumpPos, true
		}
		return 0, false
	}
	for i, ev := range e.queue {
		if pos, ok := posOf(ev); ok && pos != int32(i+1) {
			t.Fatalf("step %d: the owner of kind %d entry %d records position %d, the entry is at %d", step, ev.kind, ev.target, pos, i+1)
		}
	}
	check := func(pos int32, kind eventKind, target int) {
		if pos == 0 {
			return
		}
		if ev := e.queue[pos-1]; ev.kind != kind || ev.target != int32(target) {
			t.Fatalf("step %d: owner %d of kind %d records position %d, which holds kind %d of %d", step, target, kind, pos, ev.kind, ev.target)
		}
	}
	for c, p := range e.ch.pools {
		check(p.headPos, kindHead, c)
	}
	for slot, u := range e.ch.slots {
		check(u.jumpPos, kindJump, slot)
	}
}

func checkOracle(t *testing.T, step int, eng *Engine, ref *refEngine, got, want *oracleSide) {
	t.Helper()
	got.collect()
	want.collect()
	if len(got.log) != len(want.log) {
		t.Fatalf("step %d: logged %d firings, reference %d", step, len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("step %d: firing %d is %d, reference %d", step, i, got.log[i], want.log[i])
		}
	}
	if eng.Now() != ref.now {
		t.Fatalf("step %d: Now = %v, reference %v", step, eng.Now(), ref.now)
	}
	at, ok := eng.NextAt()
	rat, rok := ref.nextAt()
	if at != rat || ok != rok {
		t.Fatalf("step %d: NextAt = (%v, %v), reference (%v, %v)", step, at, ok, rat, rok)
	}
	if queued(eng) != ref.queued() {
		t.Fatalf("step %d: queued = %d, reference %d", step, queued(eng), ref.queued())
	}
	checkPositions(t, step, eng)
	if got.errs != want.errs {
		t.Fatalf("step %d: %d schedule errors, reference %d", step, got.errs, want.errs)
	}
}

// The engine must fire exactly what the container/heap model fires, in
// the same order, with the same clock and the same queue view at every
// step. The sequences are seeded and random: closures (some scheduled
// from callbacks); play-ends armed at now plus a constant, as the
// simulator arms them, and at arbitrary times, which land on the heap
// when earlier than the lane's tail; pool heads armed, re-keyed while
// queued and taken over after a cancel; cancels the way the simulator
// does them (lazily, by clearing the owner's seq; after the event fired
// included); equal timestamps; scheduling in the past; and RunUntil
// calls that stop before, on and after queued times.
func TestEngineMatchesContainerHeapOracle(t *testing.T) {
	const playSeconds = 2.5 // the harness's ChunkSeconds
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, ref := NewEngine(), &refEngine{}
		got, want := newEngineSide(eng), newRefSide(ref)
		ids := 0
		for step := 0; step < 600; step++ {
			// Coarse delays make many ties; a negative one is a schedule
			// in the past, which both must reject.
			at := ref.now + float64(rng.Intn(12)-1)*0.5
			switch op := rng.Intn(12); {
			case op < 3:
				got.add(ids, at)
				want.add(ids, at)
				ids++
			case op < 5:
				o := rng.Intn(oracleOwners)
				got.armOwner(o, ref.now+playSeconds)
				want.armOwner(o, ref.now+playSeconds)
			case op < 7:
				o := rng.Intn(2 * oracleOwners)
				got.armOwner(o, at)
				want.armOwner(o, at)
			case op < 8:
				o := rng.Intn(2 * oracleOwners)
				got.cancel(o)
				want.cancel(o)
			default:
				until := ref.now + float64(rng.Intn(5))*0.5
				if at, ok := ref.nextAt(); ok && rng.Intn(3) == 0 {
					until = at // stop exactly on a queued time
				}
				eng.RunUntil(until)
				ref.runUntil(until)
			}
			checkOracle(t, step, eng, ref, got, want)
		}
		eng.RunUntil(ref.now + 1e9)
		ref.runUntil(ref.now + 1e9)
		checkOracle(t, -1, eng, ref, got, want)
		if n := queued(eng); n != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, n)
		}
	}
}
