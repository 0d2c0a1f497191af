package sim

import (
	"fmt"
	"math"
)

// timer is one queued firing: (at, seq) orders firings, and seq is
// unique per queue, so the order is strict and total.
type timer struct {
	at  float64
	seq uint64
}

// before is the firing order: earlier time first, then arming order.
func (a *timer) before(b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// call is one queued control callback.
type call struct {
	timer
	fn func(now float64)
}

// Engine is the control clock both engines embed. It queues the control
// callbacks (provisioning rounds, rebalances, delayed capacity) on a
// binary min-heap by (at, seq), and RunUntil is the one barrier loop:
// the engine's state advances to the next callback, the callbacks due
// there run with the state settled at that instant, and so on up to the
// target. Between barriers the embedding engine advances its own state:
// each channel of the per-viewer engine steps on its own clock, and the
// fluid engine integrates.
type Engine struct {
	now     float64
	seq     uint64
	queue   []call
	advance func(t float64) // moves the embedding engine's state to t
	pace    func(t float64) // Config.Pacer, or nil
}

// NewEngine returns an engine with the clock at zero that moves the
// embedding engine's state with advance and, when pace is not nil,
// calls pace before each advance (see Config.Pacer).
func NewEngine(advance, pace func(t float64)) *Engine {
	return &Engine{advance: advance, pace: pace}
}

// Now returns the simulated clock in seconds.
func (e *Engine) Now() float64 { return e.now }

// RunUntil advances the simulation to time t (seconds). The barrier is
// the earlier of t and the next callback; when it is after Now, pace
// and then advance move the state to it. The callbacks due at the
// barrier then run in (at, seq) order, those they schedule at the same
// instant included, and the loop repeats until the barrier reaches t.
func (e *Engine) RunUntil(t float64) {
	for {
		barrier := t
		if at, ok := e.nextAt(); ok && at < barrier {
			barrier = at
		}
		if barrier > e.now {
			if e.pace != nil {
				e.pace(barrier)
			}
			e.advance(barrier)
			e.now = barrier
		}
		for len(e.queue) > 0 && e.queue[0].at <= barrier {
			c := e.pop()
			e.now = c.at
			c.fn(c.at)
		}
		if barrier >= t {
			return
		}
	}
}

// ScheduleAt runs fn at simulated time t, at a control barrier: the
// state is settled at t when it fires. Scheduling in the past is an
// error: it would silently reorder causality.
func (e *Engine) ScheduleAt(t float64, fn func(now float64)) error {
	if t < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v", t, e.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	e.seq++
	e.queue = append(e.queue, call{timer{t, e.seq}, fn})
	// container/heap's up; it and the down in pop make exactly that
	// heap's comparisons and swaps, so the layout, and the pop order even
	// for incomparable (NaN) times, match it.
	q := e.queue
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q[j].before(&q[i].timer) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return nil
}

// ScheduleRepeating runs fn at start, start+interval, start+2·interval, …
// at control barriers.
func (e *Engine) ScheduleRepeating(start, interval float64, fn func(now float64)) error {
	if interval <= 0 {
		return fmt.Errorf("sim: non-positive repeat interval %v", interval)
	}
	var tick func(now float64)
	at := start
	tick = func(now float64) {
		fn(now)
		at += interval
		//cloudmedia:allow noloss -- at > now by construction, ScheduleAt cannot fail
		_ = e.ScheduleAt(at, tick)
	}
	return e.ScheduleAt(start, tick)
}

// pop removes and returns the earliest queued callback.
func (e *Engine) pop() call {
	q := e.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; { // container/heap's down over q[:n]
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].before(&q[j].timer) {
			j = j2
		}
		if !q[j].before(&q[i].timer) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	c := q[n]
	q[n] = call{}
	e.queue = q[:n]
	return c
}

// nextAt returns the timestamp of the earliest queued callback and
// whether one exists.
func (e *Engine) nextAt() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// idle is a disarmed timer: after every armed one, whose time is finite
// and whose seq is positive, and not before itself.
var idle = timer{at: math.Inf(1)}

// The indices of a channel's timers.
const (
	arrivalTimer = 0 // the channel's next viewer arrival
	jumpTimer    = 1 // the channel's jump clock (channelState.rearmJump)
	headTimers   = 2 // headTimers+chunk completes that chunk's pool head
)

// playEnd is a queued playback end of the viewer in slot.
type playEnd struct {
	timer
	slot int32
}

// clockHandler runs what a clock fires: its channel, or a test's model.
type clockHandler interface {
	// onTimer runs the handler of timer i, which the clock has disarmed.
	onTimer(i int)
	// onPlayEnd ends the playback of the viewer in slot if seq is still
	// the play-end it armed; it ignores one the viewer has cancelled.
	onPlayEnd(slot int32, seq uint64)
}

// clock is one channel's event queue. Every owner on a channel has at
// most one pending event, so the clock keeps one timer per owner instead
// of a heap:
//
//   - one timer per pool, for its head download's completion,
//   - the arrival timer and the jump clock, and
//   - the play-end lane, a FIFO ring of playback ends. Each fires
//     playSeconds (the chunk's playback time) after it is armed, and the
//     time never goes back, so successive play-ends arrive in (at, seq)
//     order and the ring holds them already sorted.
//
// Every arm takes the next seq, and RunUntil fires the earliest armed
// timer or lane head by (at, seq), so events fire in exactly the order
// one heap over all of them gives. A timer is disarmed before its
// handler runs, and re-arming replaces it. Play-ends are cancelled
// lazily: the viewer records the seq it armed, and the handler drops a
// play-end whose seq no longer matches.
type clock struct {
	now         float64
	seq         uint64
	h           clockHandler
	playSeconds float64 // from arming a play-end to its firing
	timers      []timer // by index: arrivalTimer, jumpTimer, headTimers+chunk

	// lane is the play-end ring: laneLen events from index laneHead,
	// in (at, seq) order. Its length is zero or a power of two; it
	// doubles when full and never shrinks.
	lane     []playEnd
	laneHead int
	laneLen  int
}

// newClock returns an idle clock with n timers whose play-ends fire
// playSeconds after they are armed.
func newClock(h clockHandler, n int, playSeconds float64) *clock {
	c := &clock{h: h, playSeconds: playSeconds, timers: make([]timer, n)}
	for i := range c.timers {
		c.timers[i] = idle
	}
	return c
}

// Now returns the channel's simulated time in seconds.
func (c *clock) Now() float64 { return c.now }

// arm sets timer i to fire at `at`, which its owner computes as now plus
// a non-negative delay, with the next seq.
//
//cloudmedia:hotpath
func (c *clock) arm(i int, at float64) {
	c.seq++
	c.timers[i] = timer{at, c.seq}
}

// disarm clears timer i.
func (c *clock) disarm(i int) { c.timers[i] = idle }

// armPlayEnd queues the playback end of the viewer in slot playSeconds
// from now and returns its seq.
//
//cloudmedia:hotpath
func (c *clock) armPlayEnd(slot int32) uint64 {
	if c.laneLen == len(c.lane) {
		c.growLane()
	}
	c.seq++
	at := c.now + c.playSeconds
	c.lane[(c.laneHead+c.laneLen)&(len(c.lane)-1)] = playEnd{timer{at, c.seq}, slot}
	c.laneLen++
	return c.seq
}

// growLane doubles the lane (to 16 from empty), moving its events to the
// front in order.
func (c *clock) growLane() {
	grown := make([]playEnd, max(16, 2*len(c.lane)))
	n := copy(grown, c.lane[c.laneHead:])
	copy(grown[n:], c.lane[:c.laneHead])
	c.lane, c.laneHead = grown, 0
}

// RunUntil fires the channel's events in (at, seq) order until none is
// left at or before `until`, then advances the clock to `until`.
//
//cloudmedia:hotpath
func (c *clock) RunUntil(until float64) {
	for {
		// A channel has J+2 timers, a handful: a scan finds the earliest.
		next, first := 0, c.timers[0]
		for i, t := range c.timers {
			if t.before(&first) {
				next, first = i, t
			}
		}
		if c.laneLen > 0 && c.lane[c.laneHead].before(&first) {
			pe := c.lane[c.laneHead]
			if !(pe.at <= until) {
				break
			}
			c.laneHead = (c.laneHead + 1) & (len(c.lane) - 1)
			c.laneLen--
			c.now = pe.at
			c.h.onPlayEnd(pe.slot, pe.seq)
			continue
		}
		if first.seq == 0 || !(first.at <= until) {
			break
		}
		c.now = first.at
		c.disarm(next)
		c.h.onTimer(next)
	}
	if until > c.now {
		c.now = until
	}
}
