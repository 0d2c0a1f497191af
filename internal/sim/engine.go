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

// Engine is a minimal deterministic discrete-event scheduler over a binary
// min-heap of value events.
//
// Cancellation is lazy: the owner of an event records the seq it armed,
// and a popped event whose seq no longer matches its owner's is skipped
// without touching the clock. A cancelled event therefore stays queued,
// and counts in NextAt and in the queue length, until it is popped.
type Engine struct {
	now   float64
	seq   uint64
	queue []event

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
	e.push(at, kindCall, slot)
	return nil
}

// arm queues a per-viewer event and returns its sequence number, or 0
// (never a valid number) when `at` lies in the past, in which case the
// owner keeps whatever it had armed before.
func (e *Engine) arm(at float64, kind eventKind, target int32) uint64 {
	if at < e.now {
		return 0
	}
	return e.push(at, kind, target)
}

// push appends the event and sifts it up. The sift makes exactly the
// comparisons and moves of container/heap's up, so the layout, and the
// pop order even for incomparable (NaN) times, match the heap it replaced.
//
//cloudmedia:hotpath
func (e *Engine) push(at float64, kind eventKind, target int32) uint64 {
	e.seq++
	ev := event{at: at, seq: e.seq, kind: kind, target: target}
	e.queue = append(e.queue, ev)
	q := e.queue
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = ev
	return ev.seq
}

// pop removes and returns the earliest event, sifting the last one down
// from the root with container/heap's comparisons.
//
//cloudmedia:hotpath
func (e *Engine) pop() event {
	q := e.queue
	n := len(q) - 1
	top := q[0]
	last := q[n]
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].before(&q[j]) {
			j = j2
		}
		if !q[j].before(&last) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = last
	return top
}

// RunUntil processes events in timestamp order until the queue is empty or
// the next event is after `until`, then advances the clock to `until`.
//
//cloudmedia:hotpath
func (e *Engine) RunUntil(until float64) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.dispatch(e.pop())
	}
	if until > e.now {
		e.now = until
	}
}

// dispatch fires a popped event. A closure always runs; a per-viewer
// event runs only if its owner still has it armed, and the clock moves to
// the event only then, so a skipped (cancelled) event leaves time where
// it was.
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

// NextAt returns the timestamp of the earliest queued event and whether
// one exists. Cancelled events still count until popped; a spurious
// barrier on a cancelled timestamp is harmless.
func (e *Engine) NextAt() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}
