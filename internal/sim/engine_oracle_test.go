package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the container/heap references: a closure of
// the call engine, or a timer or play-end of the channel clock.
type refEvent struct {
	at       float64
	seq      uint64
	canceled bool
	fn       func() // the call engine's closure
	timer    int    // the clock's timer index, -1 for a play-end
	slot     int32  // the play-end's viewer slot
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any) {
	e, _ := x.(*refEvent)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refClock is a channel clock modelled on container/heap: every timer
// and play-end is an event on one heap. Re-arming or disarming a timer
// flags its queued event cancelled, and a cancelled event is popped and
// skipped. Play-ends are never flagged: like the clock, the reference
// passes each one to the handler, which drops those it has cancelled.
type refClock struct {
	now, playSeconds float64
	seq              uint64
	queue            refHeap
	armed            []*refEvent // by timer index, nil when disarmed
	h                clockHandler
}

func (r *refClock) Now() float64 { return r.now }

func (r *refClock) arm(i int, at float64) {
	r.disarm(i)
	r.seq++
	r.armed[i] = &refEvent{at: at, seq: r.seq, timer: i}
	heap.Push(&r.queue, r.armed[i])
}

func (r *refClock) disarm(i int) {
	if ev := r.armed[i]; ev != nil {
		ev.canceled = true
		r.armed[i] = nil
	}
}

func (r *refClock) armPlayEnd(slot int32) uint64 {
	r.seq++
	heap.Push(&r.queue, &refEvent{at: r.now + r.playSeconds, seq: r.seq, timer: -1, slot: slot})
	return r.seq
}

func (r *refClock) RunUntil(until float64) {
	for len(r.queue) > 0 && r.queue[0].at <= until {
		ev, _ := heap.Pop(&r.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		r.now = ev.at
		if ev.timer < 0 {
			r.h.onPlayEnd(ev.slot, ev.seq)
			continue
		}
		r.armed[ev.timer] = nil
		r.h.onTimer(ev.timer)
	}
	if until > r.now {
		r.now = until
	}
}

// clockQueue is what the oracle drives: the clock or its reference.
type clockQueue interface {
	Now() float64
	arm(i int, at float64)
	disarm(i int)
	armPlayEnd(slot int32) uint64
	RunUntil(until float64)
}

const (
	oracleTimers = headTimers + 6 // the arrival, the jump clock and six pool heads
	oracleSlots  = 6
)

// firing is one logged handler run: a timer index, or -1-slot for a
// play-end, and the time it ran at.
type firing struct {
	owner int
	at    float64
}

// oracleModel is the handler both queues fire into. It logs each firing
// and, while its budget lasts, arms from inside the handler the way the
// channel does: a fired timer re-arms itself or its neighbour at the same
// or a later time, and a fired play-end queues the viewer's next one. Its
// viewers keep the seq of their armed play-end and drop any other.
type oracleModel struct {
	q       clockQueue
	log     []firing
	playSeq [oracleSlots]uint64
	budget  int
}

func (m *oracleModel) onTimer(i int) {
	m.log = append(m.log, firing{i, m.q.Now()})
	if m.budget > 0 && len(m.log)%3 != 0 {
		m.budget--
		m.q.arm((i+m.budget%2)%oracleTimers, m.q.Now()+float64(m.budget%4)*0.5)
	}
}

func (m *oracleModel) onPlayEnd(slot int32, seq uint64) {
	if m.playSeq[slot] != seq {
		return
	}
	m.playSeq[slot] = 0
	m.log = append(m.log, firing{-1 - int(slot), m.q.Now()})
	if m.budget > 0 && slot%2 == 0 {
		m.budget--
		m.playSeq[slot] = m.q.armPlayEnd(slot)
	}
}

// runClockOracle drives the clock and its container/heap reference
// through the operation sequence ops, two bytes an operation: timers
// armed (at now or later, in half-second steps, so ties are common) and
// disarmed, play-ends armed and cancelled the way a viewer does (by
// forgetting the seq), and RunUntil calls that stop before, on and after
// pending times. After every operation, and after a final drain, both
// must have logged the same firings at the same times, agree on the
// clock, and hold every timer armed at the same (at, seq).
func runClockOracle(t *testing.T, ops []byte) {
	const playSeconds = 2.5
	got, want := &oracleModel{budget: 200}, &oracleModel{budget: 200}
	c := newClock(got, oracleTimers, playSeconds)
	ref := &refClock{playSeconds: playSeconds, armed: make([]*refEvent, oracleTimers), h: want}
	got.q, want.q = c, ref
	check := func(step int) {
		t.Helper()
		if len(got.log) != len(want.log) {
			t.Fatalf("step %d: logged %d firings, reference %d", step, len(got.log), len(want.log))
		}
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("step %d: firing %d is %+v, reference %+v", step, i, got.log[i], want.log[i])
			}
		}
		if c.Now() != ref.now {
			t.Fatalf("step %d: Now = %v, reference %v", step, c.Now(), ref.now)
		}
		for i, tm := range c.timers {
			switch ev := ref.armed[i]; {
			case ev == nil && tm != idle:
				t.Fatalf("step %d: timer %d armed at %+v, reference disarmed", step, i, tm)
			case ev != nil && (tm.at != ev.at || tm.seq != ev.seq):
				t.Fatalf("step %d: timer %d is %+v, reference (%v, %d)", step, i, tm, ev.at, ev.seq)
			}
		}
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := int(ops[step]), int(ops[step+1])
		switch op % 8 {
		case 0, 1, 2:
			at := ref.now + float64(arg>>4%8)*0.5
			c.arm(arg%oracleTimers, at)
			ref.arm(arg%oracleTimers, at)
		case 3:
			c.disarm(arg % oracleTimers)
			ref.disarm(arg % oracleTimers)
		case 4, 5:
			slot := arg % oracleSlots
			got.playSeq[slot] = c.armPlayEnd(int32(slot))
			want.playSeq[slot] = ref.armPlayEnd(int32(slot))
		case 6:
			got.playSeq[arg%oracleSlots] = 0
			want.playSeq[arg%oracleSlots] = 0
		default:
			until := ref.now + float64(arg%5)*0.5
			if arg>>3%3 == 0 && len(ref.queue) > 0 {
				until = ref.queue[0].at // stop exactly on a pending time
			}
			c.RunUntil(until)
			ref.RunUntil(until)
		}
		check(step)
	}
	c.RunUntil(ref.now + 1e9)
	ref.RunUntil(ref.now + 1e9)
	check(-1)
	if n := pending(c); n != 0 {
		t.Fatalf("%d events pending after draining", n)
	}
}

// The channel clock must fire exactly what a container/heap queue of all
// its events fires, in the same order, at the same times, with the same
// timers armed at every step; the control engine's closure heap must
// match container/heap pop for pop. Both run seeded random sequences.
func TestEngineMatchesContainerHeapOracle(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			ops := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(ops)
			t.Run(fmt.Sprint(seed), func(t *testing.T) { runClockOracle(t, ops) })
		}
	})
	t.Run("calls", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			runCallOracle(t, rand.New(rand.NewSource(seed)))
		}
	})
}

// FuzzClockMatchesHeapOracle runs the clock oracle on arbitrary
// operation sequences.
func FuzzClockMatchesHeapOracle(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runClockOracle(t, ops)
	})
}

// refEngine is the control engine modelled on container/heap.
type refEngine struct {
	now   float64
	seq   uint64
	queue refHeap
}

func (e *refEngine) schedule(at float64, fn func()) error {
	if at < e.now {
		return fmt.Errorf("schedule at %v before now %v", at, e.now)
	}
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: fn})
	return nil
}

func (e *refEngine) runUntil(until float64) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		ev, _ := heap.Pop(&e.queue).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
	if until > e.now {
		e.now = until
	}
}

// callSide is one engine under the closure oracle. Each closure logs its
// id when it runs, and every third one schedules a follow-up at the same
// or a later time, so closures are also scheduled from inside callbacks,
// ties included.
type callSide struct {
	log    []int
	budget int
	errs   int
	now    func() float64
	sched  func(at float64, fn func()) error
}

func (s *callSide) add(id int, at float64) {
	fn := func() {
		s.log = append(s.log, id)
		if id%3 == 0 && s.budget > 0 {
			s.budget--
			if err := s.sched(s.now()+float64(s.budget%4)*0.5, func() { s.log = append(s.log, 1<<20) }); err != nil {
				s.errs++
			}
		}
	}
	if err := s.sched(at, fn); err != nil {
		s.errs++
	}
}

// runCallOracle drives the control engine and container/heap through one
// random sequence of schedules (some in the past, which both must
// reject) and RunUntil calls, and requires the same firings, clock,
// NextAt and queue length after every step.
func runCallOracle(t *testing.T, rng *rand.Rand) {
	eng, ref := NewEngine(), &refEngine{}
	got := &callSide{budget: 200, now: eng.Now, sched: eng.Schedule}
	want := &callSide{budget: 200, now: func() float64 { return ref.now }, sched: ref.schedule}
	check := func(step int) {
		t.Helper()
		if !slices.Equal(got.log, want.log) || got.errs != want.errs {
			t.Fatalf("step %d: fired %v with %d errors, reference %v with %d", step, got.log, got.errs, want.log, want.errs)
		}
		at, ok := eng.NextAt()
		var rat float64
		if len(ref.queue) > 0 {
			rat = ref.queue[0].at
		}
		if eng.Now() != ref.now || at != rat || ok != (len(ref.queue) > 0) || len(eng.queue) != len(ref.queue) {
			t.Fatalf("step %d: Now %v, NextAt (%v, %v), %d queued; reference %v, %v, %d", step, eng.Now(), at, ok, len(eng.queue), ref.now, rat, len(ref.queue))
		}
	}
	for step, id := 0, 0; step < 600; step++ {
		if rng.Intn(2) == 0 {
			at := ref.now + float64(rng.Intn(12)-1)*0.5
			got.add(id, at)
			want.add(id, at)
			id++
		} else {
			until := ref.now + float64(rng.Intn(5))*0.5
			if len(ref.queue) > 0 && rng.Intn(3) == 0 {
				until = ref.queue[0].at
			}
			eng.RunUntil(until)
			ref.runUntil(until)
		}
		check(step)
	}
	eng.RunUntil(ref.now + 1e9)
	ref.runUntil(ref.now + 1e9)
	check(-1)
}
