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
// timers armed at every step; the control engine's barrier loop must
// pace, advance and fire exactly as the reference barrier loop does,
// and its closure heap must match container/heap pop for pop. Both run
// seeded random sequences; the odd seeds of the calls part are paced.
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
			ops := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(ops)
			t.Run(fmt.Sprint(seed), func(t *testing.T) { runCallOracle(t, ops, seed%2 == 1) })
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

// refEngine is the control engine modelled on container/heap, with a
// reference barrier loop written event by event: while a callback is due
// by the target, move the state to its time if that is later and run it;
// then move the state to the target if that is later still.
type refEngine struct {
	now           float64
	seq           uint64
	queue         refHeap
	advance, pace func(t float64)
}

func (e *refEngine) schedule(at float64, fn func(now float64)) error {
	if at < e.now {
		return fmt.Errorf("schedule at %v before now %v", at, e.now)
	}
	e.seq++
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: func() { fn(at) }})
	return nil
}

func (e *refEngine) moveTo(t float64) {
	if t > e.now {
		if e.pace != nil {
			e.pace(t)
		}
		e.advance(t)
		e.now = t
	}
}

func (e *refEngine) runUntil(t float64) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		ev, _ := heap.Pop(&e.queue).(*refEvent)
		e.moveTo(ev.at)
		ev.fn()
	}
	e.moveTo(t)
}

// The kinds of a barrier-log entry.
const (
	logPace = iota
	logAdvance
	logFire
)

// logEntry is one pace, advance or callback firing and its time; id
// names the callback, and follow-ups have negative ids.
type logEntry struct {
	kind, id int
	at       float64
}

// callSide is one engine under the barrier-loop oracle. Its pace and
// advance hooks and its callbacks log themselves. Every third callback
// schedules a follow-up at the same or a later time, so callbacks are
// also scheduled from inside callbacks, ties and the firing instant
// itself included; sameInstant counts the follow-ups queued at their
// parent's instant, which must run before the state advances again.
type callSide struct {
	t           *testing.T
	log         []logEntry
	budget      int
	errs        int
	followUps   int
	sameInstant int
	now         func() float64
	sched       func(at float64, fn func(now float64)) error
}

func (s *callSide) pace(at float64) { s.log = append(s.log, logEntry{logPace, 0, at}) }

func (s *callSide) advance(at float64) {
	if s.sameInstant != 0 {
		s.t.Fatalf("advance to %v with %d callbacks still due at %v", at, s.sameInstant, s.now())
	}
	s.log = append(s.log, logEntry{logAdvance, 0, at})
}

func (s *callSide) add(id int, at float64) {
	fn := func(now float64) {
		s.log = append(s.log, logEntry{logFire, id, now})
		if id%3 == 0 && s.budget > 0 {
			s.budget--
			s.followUps++
			fid, delay := -s.followUps, float64(s.budget%4)*0.5
			if delay == 0 {
				s.sameInstant++
			}
			if err := s.sched(now+delay, func(now float64) {
				if delay == 0 {
					s.sameInstant--
				}
				s.log = append(s.log, logEntry{logFire, fid, now})
			}); err != nil {
				s.errs++
			}
		}
	}
	if err := s.sched(at, fn); err != nil {
		s.errs++
	}
}

// checkBarrierLog checks the entries one RunUntil(until) call logged on
// an engine whose clock stood at now before it: each pace is followed by
// the advance to the same barrier (and, when paced, each advance follows
// its pace), barriers rise strictly from now and never pass until, and
// every callback fires at the barrier the state was last moved to.
func checkBarrierLog(t *testing.T, step int, log []logEntry, now, until float64, paced bool) {
	t.Helper()
	for i, e := range log {
		switch e.kind {
		case logPace:
			if i+1 == len(log) || log[i+1] != (logEntry{logAdvance, 0, e.at}) {
				t.Fatalf("step %d: pace at %v not followed by its advance: %v", step, e.at, log)
			}
		case logAdvance:
			if paced && (i == 0 || log[i-1] != (logEntry{logPace, 0, e.at})) {
				t.Fatalf("step %d: advance to %v without its pace first: %v", step, e.at, log)
			}
			if !(e.at > now) || e.at > until {
				t.Fatalf("step %d: advance to %v from %v, target %v", step, e.at, now, until)
			}
			now = e.at
		case logFire:
			if e.at != now {
				t.Fatalf("step %d: callback %d fired at %v with the state at %v", step, e.id, e.at, now)
			}
		}
	}
}

// runCallOracle drives the control engine and the reference through the
// operation sequence ops, two bytes an operation: schedules (some in the
// past, which both must reject) and RunUntil calls that stop before, on
// and after pending times, or before the clock. Both must log the same
// paces, advances and firings at the same times and agree on the clock,
// nextAt and the queue length after every operation and after a final
// drain, and every RunUntil's entries must pass checkBarrierLog. paced
// installs the pace hook; without it the engine must only advance.
func runCallOracle(t *testing.T, ops []byte, paced bool) {
	got := &callSide{t: t, budget: 200}
	want := &callSide{t: t, budget: 200}
	eng := NewEngine(got.advance, nil)
	ref := &refEngine{advance: want.advance}
	if paced {
		eng, ref.pace = NewEngine(got.advance, got.pace), want.pace
	}
	got.now, got.sched = eng.Now, eng.ScheduleAt
	want.now, want.sched = func() float64 { return ref.now }, ref.schedule
	check := func(step int) {
		t.Helper()
		if !slices.Equal(got.log, want.log) || got.errs != want.errs {
			t.Fatalf("step %d: logged %v with %d errors, reference %v with %d", step, got.log, got.errs, want.log, want.errs)
		}
		at, ok := eng.nextAt()
		var rat float64
		if len(ref.queue) > 0 {
			rat = ref.queue[0].at
		}
		if eng.Now() != ref.now || at != rat || ok != (len(ref.queue) > 0) || len(eng.queue) != len(ref.queue) {
			t.Fatalf("step %d: Now %v, nextAt (%v, %v), %d queued; reference %v, %v, %d", step, eng.Now(), at, ok, len(eng.queue), ref.now, rat, len(ref.queue))
		}
	}
	run := func(step int, until float64) {
		from, now := len(got.log), eng.Now()
		eng.RunUntil(until)
		ref.runUntil(until)
		check(step)
		checkBarrierLog(t, step, got.log[from:], now, until, paced)
	}
	id := 0
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step], int(ops[step+1])
		if op%2 == 0 {
			at := ref.now + float64(arg%12-1)*0.5
			got.add(id, at)
			want.add(id, at)
			id++
			check(step)
			continue
		}
		until := ref.now + float64(arg%6-1)*0.5
		if arg>>3%3 == 0 && len(ref.queue) > 0 {
			until = ref.queue[0].at // stop exactly on a pending time
		}
		run(step, until)
	}
	run(-1, ref.now+1e9)
}

// FuzzEngineMatchesOracle runs the control engine's barrier-loop oracle
// on arbitrary operation sequences; the first byte's low bit installs
// the pace hook.
func FuzzEngineMatchesOracle(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runCallOracle(t, ops, len(ops) > 0 && ops[0]&1 == 1)
	})
}
