package sim

import (
	"fmt"
)

// eventKind selects how a popped event is dispatched. The per-viewer
// kinds name their owner by index, so an event is a plain value: no
// per-event object, no closure, and no pointer for the collector to scan.
type eventKind uint8

const (
	// kindCall runs the closure in Engine.calls[target]: the control
	// callbacks (provisioning rounds, rebalances, delayed capacity) and
	// the engine's own tests.
	kindCall eventKind = iota
	// kindArrival is the channel's next viewer arrival.
	kindArrival
	// kindPlayEnd ends the playback of a viewer's chunk; target is the
	// viewer's slot.
	kindPlayEnd
	// kindJump is a viewer's VCR jump; target is the viewer's slot.
	kindJump
	// kindHead completes the head download of a pool; target is its chunk.
	kindHead
)

// event is one queued firing. (at, seq) orders the queue; seq is unique
// per engine, so the order is strict and total.
type event struct {
	at     float64
	seq    uint64
	kind   eventKind
	target int32
}

// before is the queue order: earlier time first, then scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler over value events.
// It keeps two queues:
//
//   - a binary min-heap, which takes every kind, and
//   - the play-end lane, a FIFO ring of playback ends. A viewer arms its
//     playback end ChunkSeconds after the current time, so successive
//     play-ends arrive in (at, seq) order and the ring holds them
//     already sorted. A play-end earlier than the ring's tail goes to
//     the heap instead, so the lane stays sorted whoever arms it.
//
// RunUntil and NextAt take whichever is earlier by (at, seq), the ring's
// head or the heap's top, so events fire in exactly the order one heap
// over all of them gives.
//
// Cancellation is lazy: the owner of an event records the seq it armed,
// and a popped event whose seq no longer matches its owner's is skipped
// without touching the clock. A pool's head completion and a viewer's
// jump are re-keyed rather than re-pushed: the owner keeps its entry's
// heap position (the engine updates it on every move), and re-arming
// while the entry is still queued rewrites it with the new time and the
// next seq, exactly as a push would number it, and sifts it into place.
// The heap's top fires in place and is popped after its handler, so an
// owner that re-arms from the handler re-keys the top instead of popping
// it and pushing anew. A cancelled entry stays queued, and counts in
// NextAt and in the queue length, until it is popped or its owner's next
// arm takes it over: a play-end in the lane, a play-end in the heap, or
// a pool head or jump that was cancelled and not re-armed.
type Engine struct {
	now   float64
	seq   uint64
	queue []event // binary min-heap by (at, seq)

	// lane is the play-end ring: laneLen events from index laneHead,
	// in (at, seq) order. Its length is zero or a power of two; it
	// doubles when full and never shrinks.
	lane     []event
	laneHead int
	laneLen  int

	// ch owns the per-viewer kinds; nil on the control engines, which
	// only ever queue closures.
	ch *channelState

	// calls holds the queued closures by slot; freeCalls lists the
	// slots whose closure already ran.
	calls     []func()
	freeCalls []int32
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run at simulated time `at`. Scheduling in the
// past is an error: it would silently reorder causality. A closure
// cannot be cancelled; only the per-viewer kinds are, by their owners.
func (e *Engine) Schedule(at float64, fn func()) error {
	if at < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v", at, e.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	var slot int32
	if n := len(e.freeCalls); n > 0 {
		slot = e.freeCalls[n-1]
		e.freeCalls = e.freeCalls[:n-1]
	} else {
		slot = int32(len(e.calls))
		e.calls = append(e.calls, nil)
	}
	e.calls[slot] = fn
	e.seq++
	e.push(event{at: at, seq: e.seq, kind: kindCall, target: slot})
	return nil
}

// arm queues a per-viewer event on the heap and returns its sequence
// number, or 0 (never a valid number) when `at` lies in the past, in
// which case nothing changes and the owner keeps whatever it had armed
// before. pos is the owner's record of its queued entry (see track), 0
// when it has none or does not track one. A queued entry is re-keyed in
// place, a cancelled one included; otherwise a new one is pushed. Either
// way the event takes the next seq.
//
//cloudmedia:hotpath
func (e *Engine) arm(pos int32, at float64, kind eventKind, target int32) uint64 {
	if at < e.now {
		return 0
	}
	e.seq++
	ev := event{at: at, seq: e.seq, kind: kind, target: target}
	if pos == 0 {
		e.push(ev)
		return ev.seq
	}
	// container/heap's Fix: sift down, and up if it did not move.
	if i := int(pos - 1); !e.down(i, ev, len(e.queue)) {
		e.up(i, ev)
	}
	return ev.seq
}

// armPlayEnd arms viewer slot's playback end at `at`, on the lane when
// it is not earlier than the lane's tail and on the heap otherwise, and
// returns its sequence number, or 0 when `at` lies in the past.
//
//cloudmedia:hotpath
func (e *Engine) armPlayEnd(at float64, slot int32) uint64 {
	if at < e.now {
		return 0
	}
	mask := len(e.lane) - 1
	if e.laneLen > 0 && at < e.lane[(e.laneHead+e.laneLen-1)&mask].at {
		return e.arm(0, at, kindPlayEnd, slot)
	}
	if e.laneLen == len(e.lane) {
		e.growLane()
		mask = len(e.lane) - 1
	}
	e.seq++
	e.lane[(e.laneHead+e.laneLen)&mask] = event{at: at, seq: e.seq, kind: kindPlayEnd, target: slot}
	e.laneLen++
	return e.seq
}

// growLane doubles the lane (to 16 from empty), moving its events to the
// front in order.
func (e *Engine) growLane() {
	grown := make([]event, max(16, 2*len(e.lane)))
	n := copy(grown, e.lane[e.laneHead:])
	copy(grown[n:], e.lane[:e.laneHead])
	e.lane, e.laneHead = grown, 0
}

// laneFirst reports whether the lane's head is the earliest queued event.
func (e *Engine) laneFirst() bool {
	return e.laneLen > 0 && (len(e.queue) == 0 || e.lane[e.laneHead].before(&e.queue[0]))
}

// track records in its owner that the heap entry ev now sits at index i,
// or has left the heap when i is -1, for the kinds whose owners re-key
// their entry: a pool's head (pool.headPos) and a viewer's jump
// (user.jumpPos). Both store i+1, so their zero value means none.
//
//cloudmedia:hotpath
func (e *Engine) track(ev *event, i int) {
	switch ev.kind {
	case kindHead:
		e.ch.pools[ev.target].headPos = int32(i + 1)
	case kindJump:
		e.ch.slots[ev.target].jumpPos = int32(i + 1)
	}
}

// push appends the event and sifts it up. The sifts make exactly the
// comparisons and moves of container/heap's, so the layout, and the pop
// order even for incomparable (NaN) times, match that heap's.
//
//cloudmedia:hotpath
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	e.up(len(e.queue)-1, ev)
}

// up moves ev from index j towards the root until its parent is earlier,
// placing it in the hole it stops at.
//
//cloudmedia:hotpath
func (e *Engine) up(j int, ev event) {
	q := e.queue
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&q[i]) {
			break
		}
		q[j] = q[i]
		e.track(&q[j], j)
		j = i
	}
	q[j] = ev
	e.track(&q[j], j)
}

// down moves ev from index i0 towards the leaves of q[:n] until no child
// is earlier, placing it in the hole it stops at, and reports whether it
// moved.
//
//cloudmedia:hotpath
func (e *Engine) down(i0 int, ev event, n int) bool {
	q := e.queue[:n]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].before(&q[j]) {
			j = j2
		}
		if !q[j].before(&ev) {
			break
		}
		q[i] = q[j]
		e.track(&q[i], i)
		i = j
	}
	q[i] = ev
	e.track(&q[i], i)
	return i > i0
}

// pop removes and returns the heap's earliest event, sifting the last one
// down from the root.
//
//cloudmedia:hotpath
func (e *Engine) pop() event {
	n := len(e.queue) - 1
	top, last := e.queue[0], e.queue[n]
	e.track(&top, -1)
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0, last, n)
	}
	return top
}

// RunUntil processes events in (at, seq) order, from the lane and the heap,
// until both are empty or the next event is after `until`, then advances
// the clock to `until`.
//
//cloudmedia:hotpath
func (e *Engine) RunUntil(until float64) {
	for {
		if e.laneFirst() {
			ev := e.lane[e.laneHead]
			if !(ev.at <= until) {
				break
			}
			e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
			e.laneLen--
			e.dispatch(ev)
			continue
		}
		if len(e.queue) == 0 || !(e.queue[0].at <= until) {
			break
		}
		// The top fires in place, so an owner that re-arms from its
		// handler re-keys it at the root instead of pushing anew. Nothing
		// the handler queues can go above it: every new key is at or
		// after now, with a later seq. Unless re-keyed, it is still the
		// top afterwards.
		ev := e.queue[0]
		e.dispatch(ev)
		if len(e.queue) > 0 && e.queue[0].seq == ev.seq {
			e.pop()
		}
	}
	if until > e.now {
		e.now = until
	}
}

// dispatch fires an event taken off the lane, or the heap's top before
// it is popped. A closure always runs; a per-viewer event runs only if
// its owner still has it armed, and the clock moves to the event only
// then, so a skipped (cancelled) event leaves time where it was.
//
//cloudmedia:hotpath
func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case kindCall:
		fn := e.calls[ev.target]
		e.calls[ev.target] = nil
		e.freeCalls = append(e.freeCalls, ev.target)
		e.now = ev.at
		fn()
	case kindArrival:
		ch := e.ch
		if ch.arrivalSeq != ev.seq {
			return
		}
		e.now = ev.at
		ch.sim.onArrival(ch)
	case kindPlayEnd:
		u := e.ch.slots[ev.target]
		if u.playEndSeq != ev.seq {
			return
		}
		e.now = ev.at
		u.onPlayEnd()
	case kindJump:
		u := e.ch.slots[ev.target]
		if u.jumpSeq != ev.seq {
			return
		}
		e.now = ev.at
		u.onJump()
	case kindHead:
		p := e.ch.pools[ev.target]
		if p.headSeq != ev.seq {
			return
		}
		e.now = ev.at
		p.onHeadComplete()
	}
}

// NextAt returns the timestamp of the earliest queued event, on the lane
// or the heap, and whether one exists. Cancelled entries still count
// until popped or taken over; a spurious barrier on a cancelled timestamp
// is harmless.
func (e *Engine) NextAt() (float64, bool) {
	switch {
	case e.laneFirst():
		return e.lane[e.laneHead].at, true
	case len(e.queue) > 0:
		return e.queue[0].at, true
	}
	return 0, false
}
