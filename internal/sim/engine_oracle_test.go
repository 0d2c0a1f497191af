package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the engine the value-typed heap replaced: container/heap
// over *refEvent closures with a cancelled flag. It is the oracle the
// engine must match step for step.
type refEngine struct {
	now   float64
	seq   uint64
	queue refHeap
}

type refEvent struct {
	at       float64
	seq      uint64
	canceled bool
	fn       func()
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

func (e *refEngine) schedule(at float64, fn func()) (*refEvent, error) {
	if at < e.now {
		return nil, fmt.Errorf("schedule at %v before now %v", at, e.now)
	}
	e.seq++
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev, nil
}

func (e *refEngine) runUntil(until float64) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		ev, _ := heap.Pop(&e.queue).(*refEvent)
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
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// oracleOwners is the number of per-viewer owners the harness arms
// events for.
const oracleOwners = 6

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

// newEngineSide drives the per-viewer owners the way the simulator does:
// a viewer keeps the seq it armed (a failed arm keeps the old one), and
// clears it to cancel.
func newEngineSide(e *Engine) *oracleSide {
	owners := testOwners(e, oracleOwners)
	return &oracleSide{
		budget: 200,
		now:    e.Now,
		sched:  e.Schedule,
		arm: func(o int, at float64) bool {
			seq := e.arm(at, kindPlayEnd, int32(o))
			if seq != 0 {
				owners[o].playEndSeq = seq
			}
			return seq != 0
		},
		cancel: func(o int) { owners[o].playEndSeq = 0 },
		fired: func() []int {
			var out []int
			for o, u := range owners {
				if u.state == stateStalled {
					out = append(out, o)
					u.state = statePlaying
				}
			}
			return out
		},
	}
}

// newRefSide gives each owner a handle on its armed reference event and
// cancels through the handle's flag.
func newRefSide(e *refEngine) *oracleSide {
	armed := make([]*refEvent, oracleOwners)
	hit := make([]bool, oracleOwners)
	return &oracleSide{
		budget: 200,
		now:    func() float64 { return e.now },
		sched: func(at float64, fn func()) error {
			_, err := e.schedule(at, fn)
			return err
		},
		arm: func(o int, at float64) bool {
			ev, err := e.schedule(at, func() { hit[o], armed[o] = true, nil })
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
				armed[o] = nil
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
	if len(eng.queue) != len(ref.queue) {
		t.Fatalf("step %d: queued = %d, reference %d", step, len(eng.queue), len(ref.queue))
	}
	if got.errs != want.errs {
		t.Fatalf("step %d: %d schedule errors, reference %d", step, got.errs, want.errs)
	}
}

// The value-typed engine must fire exactly what container/heap fired, in
// the same order, with the same clock and the same queue view at every
// step. The sequences are seeded and random: closures (some scheduled
// from callbacks), per-viewer events armed, re-armed and cancelled the
// way the simulator does it (lazily, by clearing the owner's seq;
// cancelling after the event fired included), equal timestamps,
// scheduling in the past, and RunUntil calls that stop before, on and
// after queued times.
func TestEngineMatchesContainerHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, ref := NewEngine(), &refEngine{}
		got, want := newEngineSide(eng), newRefSide(ref)
		ids := 0
		for step := 0; step < 600; step++ {
			// Coarse delays make many ties; a negative one is a schedule
			// in the past, which both must reject.
			at := ref.now + float64(rng.Intn(12)-1)*0.5
			switch op := rng.Intn(10); {
			case op < 3:
				got.add(ids, at)
				want.add(ids, at)
				ids++
			case op < 6:
				o := rng.Intn(oracleOwners)
				got.armOwner(o, at)
				want.armOwner(o, at)
			case op < 7:
				o := rng.Intn(oracleOwners)
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
		if len(eng.queue) != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, len(eng.queue))
		}
	}
}
