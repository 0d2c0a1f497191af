package sim

import (
	"fmt"
	"math"
	"math/rand"

	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// Mode selects the VoD implementation under test (Sec. III-B).
type Mode int

const (
	// ClientServer serves every chunk straight from the cloud.
	ClientServer Mode = iota + 1
	// P2P organizes viewers into a mesh that exchanges chunks rarest-first,
	// with the cloud compensating for insufficient peer uplink.
	P2P
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ClientServer:
		return "client-server"
	case P2P:
		return "p2p"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PeerScheduling selects how the P2P overlay allocates peer uplink across
// chunks at each rebalance.
type PeerScheduling int

const (
	// RarestFirst serves the scarcest chunks first — the paper's scheme
	// (Sec. IV-C): "requests for the rarest chunk are served first".
	RarestFirst PeerScheduling = iota + 1
	// Proportional splits the uplink budget across chunks in proportion to
	// their demand, ignoring rareness — the ablation baseline.
	Proportional
)

// String implements fmt.Stringer.
func (p PeerScheduling) String() string {
	switch p {
	case RarestFirst:
		return "rarest-first"
	case Proportional:
		return "proportional"
	default:
		return fmt.Sprintf("PeerScheduling(%d)", int(p))
	}
}

// Config assembles a simulation scenario.
type Config struct {
	Mode     Mode
	Channel  queueing.Config         // per-channel parameters (uniform channels, as in the paper)
	Workload workload.Params         // arrival trace parameters
	Transfer queueing.TransferMatrix // ground-truth viewing behaviour

	// Source overrides the demand side of the workload: per-channel
	// arrival intensity over time (a recorded trace, a synthetic
	// generator, …). nil is the parametric source derived from Workload,
	// which Resolve fills in. The channel count follows the source;
	// Workload still supplies the behavioural parameters (VCR jumps, peer
	// uplinks).
	Source workload.Source

	// OnArrivals, when non-nil, observes every realized arrival: the
	// channel, the simulated time, and the arrival mass (always 1 for
	// this engine; the fluid engine reports fractional step masses).
	// Calls for one channel are serialized; different channels may call
	// concurrently from the channel-stepping workers — on both engines —
	// so the observer must keep per-channel state only (trace.Recorder
	// does).
	OnArrivals func(channel int, t, n float64)

	// Pacer, when non-nil, is called once per control barrier with the
	// simulated time the engine is about to advance to, before any state
	// moves past the current instant: Engine.RunUntil, the barrier loop
	// both engines share, calls it. A live control plane (internal/serve)
	// blocks here against a wall clock to pace the simulation; a nil Pacer
	// (every batch run) costs nothing. The callback must not call back into
	// the engine; it may only sleep or return.
	Pacer func(simNow float64)

	// Scheduling selects the P2P uplink allocation policy. Zero means
	// RarestFirst, the paper's scheme; see Resolve.
	Scheduling PeerScheduling

	// Seed drives all randomness; runs are reproducible per seed. Each
	// channel derives an independent stream from (Seed, channel index),
	// so results do not depend on Workers.
	Seed int64
	// Workers bounds the worker pool that steps channels in parallel
	// between control-event barriers (channels only interact through the
	// controller at interval boundaries, so their event queues are
	// independent in between). The fluid engine honours the same knob for
	// its batched step fan-out. 0 uses min(GOMAXPROCS, channels); 1 runs
	// serially. Results are identical for every worker count on both
	// engines.
	Workers int
}

// RebalanceSeconds is the P2P peer-bandwidth reallocation period.
const RebalanceSeconds = 30

// QualityWindowSeconds is the trailing window of the smooth-playback
// metric, the paper's 5 minutes (Fig. 5). Both engines measure over it.
const QualityWindowSeconds = 300

// Resolve returns the config with its zero values resolved — a zero
// Scheduling is RarestFirst, a nil Source is Workload's parametric
// source, and the Source owns the channel count, leaving Workload only
// its behavioural role (jumps, uplinks) — and validated. Both engines'
// constructors resolve through it.
func (c Config) Resolve() (Config, error) {
	if c.Scheduling == 0 {
		c.Scheduling = RarestFirst
	}
	if c.Source == nil {
		c.Source = c.Workload.Source()
	}
	c.Workload.Channels = c.Source.NumChannels()
	return c, c.Validate()
}

// Validate checks the scenario invariants.
func (c Config) Validate() error {
	if c.Mode != ClientServer && c.Mode != P2P {
		return fmt.Errorf("sim: invalid mode %d", int(c.Mode))
	}
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Transfer.Validate(); err != nil {
		return err
	}
	if c.Transfer.Size() != c.Channel.Chunks {
		return fmt.Errorf("sim: transfer matrix size %d != chunks %d", c.Transfer.Size(), c.Channel.Chunks)
	}
	if c.Scheduling != RarestFirst && c.Scheduling != Proportional {
		return fmt.Errorf("sim: invalid peer scheduling %d", int(c.Scheduling))
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	if c.Source != nil {
		if err := c.Source.Validate(); err != nil {
			return err
		}
		if c.Source.NumChannels() <= 0 {
			return fmt.Errorf("sim: demand source has no channels")
		}
	}
	return nil
}

// channelSeed derives an independent deterministic stream per channel so
// channels can advance in parallel without sharing a rand source. The
// multiplier is the 64-bit golden-ratio constant (SplitMix64's increment),
// which decorrelates consecutive channel indices.
func channelSeed(seed int64, channel int) int64 {
	return seed + int64(channel+1)*-7046029254386353131 // 0x9E3779B97F4A7C15 as signed
}

// channelState holds one video channel's runtime state: its own clock
// and random stream (so channels can step in parallel), its download
// pools, live viewers, chunk ownership (the tracker's bitmap aggregate),
// and the per-interval measurement feed.
type channelState struct {
	index int
	sim   *Simulator
	clock *clock
	rng   *rand.Rand

	pools  []*pool
	owners []int // per-chunk count of viewers holding the chunk

	// live holds the watching viewers in no particular order (they are
	// only ever counted). slots holds every user struct the channel ever
	// allocated, indexed by user.slot; freeSlots lists those whose viewer
	// left, for newUser to reuse.
	live      []*user
	slots     []*user
	freeSlots []int32

	totalUplink      float64
	estimator        *viewing.Estimator
	cloudBytesServed float64

	// arrivalReal is false when the armed arrival is only the one-day
	// re-arm of a thinning run that found no arrival.
	arrivalReal bool

	// done is onHeadComplete's scratch list of finished downloads.
	done []*download

	// rebalanceOrder is the rarest-first chunk permutation, kept across
	// rebalances (see sortByOwners) so the 30-second rebalance tick stays
	// allocation-free and starts from the last tick's nearly sorted order.
	rebalanceOrder []int
}

func (ch *channelState) addUser(u *user) {
	u.livePos = len(ch.live)
	ch.live = append(ch.live, u)
	ch.totalUplink += u.uplink
	ch.estimator.RecordArrival()
}

func (ch *channelState) removeUser(u *user) {
	last := ch.live[len(ch.live)-1]
	ch.live[u.livePos] = last
	last.livePos = u.livePos
	ch.live[len(ch.live)-1] = nil
	ch.live = ch.live[:len(ch.live)-1]
	ch.totalUplink -= u.uplink
	if ch.totalUplink < 0 {
		ch.totalUplink = 0
	}
	ch.freeSlots = append(ch.freeSlots, u.slot)
}

// rearmJump re-draws the channel's jump clock for its n watching viewers.
// The first of n independent Exp(JumpMeanSeconds) jumps comes after
// Exp(JumpMeanSeconds/n), and by memorylessness the time already elapsed
// does not matter, so re-drawing whenever n changes and after every
// firing is exact in distribution. With nobody watching the clock stops.
func (ch *channelState) rearmJump() {
	n := len(ch.live)
	if n == 0 {
		ch.clock.disarm(jumpTimer)
		return
	}
	ch.clock.arm(jumpTimer, ch.clock.Now()+ch.sim.cfg.Workload.NextJump(ch.rng)/float64(n))
}

// onTimer fires the channel's timer i.
func (ch *channelState) onTimer(i int) {
	switch i {
	case arrivalTimer:
		ch.sim.onArrival(ch)
	case jumpTimer: // a viewer drawn uniformly from the watching ones seeks
		u := ch.live[ch.rng.Intn(len(ch.live))]
		ch.rearmJump()
		u.jump()
	default:
		ch.pools[i-headTimers].onHeadComplete()
	}
}

// onPlayEnd fires the play-end armed with seq for the viewer in slot,
// unless the viewer has cancelled it since.
func (ch *channelState) onPlayEnd(slot int32, seq uint64) {
	if u := ch.slots[slot]; u.playEndSeq == seq {
		u.onPlayEnd()
	}
}

// newUser returns a zeroed viewer in a free slot, reusing the struct and
// chunk bitmap of a viewer that left. A play-end still queued for the
// slot's previous viewer is skipped: its sequence number matches none the
// new viewer arms.
func (ch *channelState) newUser(uplink float64) *user {
	if n := len(ch.freeSlots); n > 0 {
		slot := ch.freeSlots[n-1]
		ch.freeSlots = ch.freeSlots[:n-1]
		u := ch.slots[slot]
		owned := u.owned
		clear(owned)
		*u = user{slot: slot, channel: ch, sim: ch.sim, uplink: uplink, owned: owned}
		return u
	}
	u := &user{
		slot:    int32(len(ch.slots)),
		channel: ch,
		sim:     ch.sim,
		uplink:  uplink,
		owned:   make([]bool, ch.sim.cfg.Channel.Chunks),
	}
	ch.slots = append(ch.slots, u)
	return u
}

// Simulator is the per-viewer discrete-event Backend. It is
// single-threaded at the API: all interaction must happen from scheduled
// callbacks or between RunUntil calls. Its Engine sequences the
// cross-channel callbacks (controller intervals, peer rebalances, delayed
// capacity applications); between them, advanceChannels shards the
// per-channel event queues across a bounded worker pool (see
// Config.Workers), and each callback fires with every channel settled at
// its instant.
type Simulator struct {
	*Engine
	cfg     Config
	workers int

	// envelopes caches each channel's thinning bound, primed serially in
	// New so the per-channel workers only ever read the source.
	envelopes []float64

	channels []*channelState
}

// Statically assert both engines satisfy the seam.
var _ Backend = (*Simulator)(nil)

// New builds a simulator, wires per-channel arrival processes, and (in P2P
// mode) starts the periodic peer-bandwidth rebalancer.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, workers: EffectiveWorkers(cfg.Workers, cfg.Workload.Channels)}
	s.Engine = NewEngine(s.advanceChannels, cfg.Pacer)
	// Prime the envelopes (and any lazy source caches, e.g. Zipf weights)
	// serially before the channel workers exist.
	s.envelopes = make([]float64, cfg.Workload.Channels)
	for c := range s.envelopes {
		env, err := cfg.Source.MaxRate(c)
		if err != nil {
			return nil, err
		}
		s.envelopes[c] = env
	}
	s.channels = make([]*channelState, cfg.Workload.Channels)
	for c := range s.channels {
		est, err := viewing.NewEstimator(cfg.Channel.Chunks)
		if err != nil {
			return nil, err
		}
		ch := &channelState{
			index:          c,
			sim:            s,
			rng:            rand.New(rand.NewSource(channelSeed(cfg.Seed, c))),
			owners:         make([]int, cfg.Channel.Chunks),
			estimator:      est,
			rebalanceOrder: make([]int, cfg.Channel.Chunks),
		}
		for i := range ch.rebalanceOrder {
			ch.rebalanceOrder[i] = i
		}
		ch.clock = newClock(ch, headTimers+cfg.Channel.Chunks, cfg.Channel.ChunkSeconds)
		ch.pools = make([]*pool, cfg.Channel.Chunks)
		for i := range ch.pools {
			ch.pools[i] = &pool{ch: ch, chunk: i}
		}
		s.channels[c] = ch
		s.scheduleArrival(ch)
	}
	if cfg.Mode == P2P {
		if err := s.ScheduleRepeating(RebalanceSeconds, RebalanceSeconds, func(float64) {
			for _, ch := range s.channels {
				s.rebalancePeers(ch)
			}
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// advanceChannels runs every channel's private event queue to time t,
// fanning out across the worker pool. Channel event handlers touch only
// their own channelState (users, pools, estimator, rng), so the shards
// share no mutable state; results are bit-identical for any worker count.
// The serial branch (effective workers == 1, pinned at New) runs on the
// calling goroutine without constructing the fan-out closure.
func (s *Simulator) advanceChannels(t float64) {
	if s.workers <= 1 || len(s.channels) == 1 {
		for _, ch := range s.channels {
			ch.clock.RunUntil(t)
		}
		return
	}
	FanOut(s.workers, len(s.channels), func(i int) {
		s.channels[i].clock.RunUntil(t)
	})
}

// scheduleArrival arms the next NHPP arrival for a channel on the
// channel's own clock, thinning against the channel's cached
// envelope. The rate comes from the resolved demand source, so the same
// loop replays traces and samples the parametric workload.
func (s *Simulator) scheduleArrival(ch *channelState) {
	now := ch.clock.Now()
	// Sample within a one-day horizon; if the thinning run finds nothing
	// (possible only at negligible rates), re-arm at the horizon.
	horizon := now + 24*3600
	next := workload.NextArrivalThinned(ch.rng, s.cfg.Source, ch.index, s.envelopes[ch.index], now, horizon)
	ch.arrivalReal = !math.IsInf(next, 1)
	ch.clock.arm(arrivalTimer, min(next, horizon))
}

// onArrival fires the channel's armed arrival event: a viewer joins
// (unless the event is a bare re-arm) and the next arrival is armed.
func (s *Simulator) onArrival(ch *channelState) {
	if ch.arrivalReal {
		s.spawnUser(ch)
	}
	s.scheduleArrival(ch)
}

// spawnUser creates a viewer at the configured entry distribution: chunk 1
// with probability α, uniform over the others otherwise.
func (s *Simulator) spawnUser(ch *channelState) {
	u := ch.newUser(s.cfg.Workload.SampleUplink(ch.rng))
	start := 0
	if s.cfg.Channel.Chunks > 1 && ch.rng.Float64() >= s.cfg.Channel.EntryFirstChunk {
		start = 1 + ch.rng.Intn(s.cfg.Channel.Chunks-1)
	}
	u.join(start)
	if s.cfg.OnArrivals != nil {
		s.cfg.OnArrivals(ch.index, ch.clock.Now(), 1)
	}
}

// rebalancePeers reallocates the channel's aggregate peer uplink across
// chunks — the simulator-side counterpart of Eqn. (5). Each chunk can draw
// at most (owners × mean uplink) and at most the remaining unallocated
// budget; demand is the active download count times R (every download can
// absorb up to one VM's bandwidth), so the cloud share only compensates
// the shortfall, mirroring Δ = Rm − Γ. The visit order is the scheduling
// policy: rarest-first (the paper) or demand-proportional (ablation).
//
//cloudmedia:hotpath
func (s *Simulator) rebalancePeers(ch *channelState) {
	n := len(ch.live)
	if n == 0 {
		for _, p := range ch.pools {
			if p.peerCap != 0 {
				p.setCapacity(-1, 0)
			}
		}
		return
	}
	meanUplink := ch.totalUplink / float64(n)
	target := s.cfg.Channel.VMBandwidth

	if s.cfg.Scheduling == Proportional {
		s.rebalanceProportional(ch, meanUplink, target)
		return
	}

	budget := ch.totalUplink
	order := ch.rebalanceOrder
	sortByOwners(order, ch.owners)
	for _, i := range order {
		p := ch.pools[i]
		var take float64
		if ch.owners[i] > 0 && budget > 0 {
			demand := float64(len(p.active)) * target
			avail := float64(ch.owners[i]) * meanUplink
			if avail > budget {
				avail = budget
			}
			take = demand
			if take > avail {
				take = avail
			}
		}
		if take != p.peerCap {
			p.setCapacity(-1, take)
		}
		budget -= take
	}
}

// sortByOwners re-sorts the chunk permutation in place by insertion sort
// under the strict total order (owners, index). A strict total order has
// exactly one sorted permutation, so the result is the one a stable sort
// of the identity by owner count gives, whatever order it starts from,
// while copy counts that drift slowly between ticks leave it nearly
// sorted, so the pass is about O(J). Chunk counts are small (8–20), and
// unlike sort.SliceStable it allocates nothing, keeping the 30-second
// rebalance tick off the garbage collector entirely.
//
//cloudmedia:hotpath
func sortByOwners(order []int, owners []int) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		ov := owners[v]
		j := i - 1
		for ; j >= 0; j-- {
			u := order[j]
			if ou := owners[u]; ou < ov || ou == ov && u < v {
				break
			}
			order[j+1] = u
		}
		order[j+1] = v
	}
}

// rebalanceProportional splits the uplink budget across chunks with owners
// in proportion to demand, with no rareness priority.
//
//cloudmedia:hotpath
func (s *Simulator) rebalanceProportional(ch *channelState, meanUplink, target float64) {
	var totalDemand float64
	for i, p := range ch.pools {
		if ch.owners[i] > 0 {
			totalDemand += float64(len(p.active)) * target
		}
	}
	budget := ch.totalUplink
	for i, p := range ch.pools {
		var take float64
		if ch.owners[i] > 0 && totalDemand > 0 {
			demand := float64(len(p.active)) * target
			share := budget * demand / totalDemand
			avail := float64(ch.owners[i]) * meanUplink
			take = demand
			if take > share {
				take = share
			}
			if take > avail {
				take = avail
			}
		}
		if take != p.peerCap {
			p.setCapacity(-1, take)
		}
	}
}

// SetCloudCapacity sets the cloud-provisioned upload capacity Δ for one
// chunk's pool, in bytes/s — the knob the controller turns after each
// provisioning round.
func (s *Simulator) SetCloudCapacity(channel, chunk int, bytesPerSecond float64) error {
	if channel < 0 || channel >= len(s.channels) {
		return fmt.Errorf("sim: channel %d outside [0,%d)", channel, len(s.channels))
	}
	if chunk < 0 || chunk >= s.cfg.Channel.Chunks {
		return fmt.Errorf("sim: chunk %d outside [0,%d)", chunk, s.cfg.Channel.Chunks)
	}
	if !(bytesPerSecond >= 0) || math.IsInf(bytesPerSecond, 1) {
		return fmt.Errorf("sim: capacity %v is not a finite non-negative rate", bytesPerSecond)
	}
	s.channels[channel].pools[chunk].setCapacity(bytesPerSecond, -1)
	return nil
}

// CloudCapacity returns the total cloud capacity currently provisioned to a
// channel, bytes/s.
func (s *Simulator) CloudCapacity(channel int) (float64, error) {
	if channel < 0 || channel >= len(s.channels) {
		return 0, fmt.Errorf("sim: channel %d outside [0,%d)", channel, len(s.channels))
	}
	return s.channels[channel].cloudCapacity(), nil
}

// cloudCapacity returns the sum of the channel's per-pool cloud shares,
// in pool order. Pool state needs no settling for this: cloud capacity
// changes only through Simulator.SetCloudCapacity (the rebalancer touches
// only the peer share).
func (ch *channelState) cloudCapacity() float64 {
	var total float64
	for _, p := range ch.pools {
		total += p.cloudCap
	}
	return total
}

// TotalCloudCapacity returns the cloud capacity provisioned across all
// channels, bytes/s. It iterates the channel list directly rather than
// going through CloudCapacity's index validation, so there is no error to
// discard: every index produced by the range is in bounds by construction.
func (s *Simulator) TotalCloudCapacity() float64 {
	var total float64
	for _, ch := range s.channels {
		total += ch.cloudCapacity()
	}
	return total
}

// CloudBytesServed returns the cumulative bytes actually served from cloud
// capacity since the start of the run (the "used" curve of Fig. 4). Pools
// are settled to the current clock first; byte counters are per-channel
// (each channel's worker owns its own accumulator), so the total is their
// sum in channel order.
func (s *Simulator) CloudBytesServed() float64 {
	var total float64
	for _, ch := range s.channels {
		ch.settlePools()
		total += ch.cloudBytesServed
	}
	return total
}

// settlePools advances every pool's byte accounting to the channel clock.
func (ch *channelState) settlePools() {
	now := ch.clock.Now()
	for _, p := range ch.pools {
		p.settle(now)
	}
}

// TotalUsers returns the viewer count across all channels.
func (s *Simulator) TotalUsers() int {
	var n int
	for _, ch := range s.channels {
		n += len(ch.live)
	}
	return n
}

// MeanUplink returns the average upload bandwidth of a channel's current
// viewers (0 when empty) — the u the controller feeds into Eqn. (5).
func (s *Simulator) MeanUplink(channel int) (float64, error) {
	if channel < 0 || channel >= len(s.channels) {
		return 0, fmt.Errorf("sim: channel %d outside [0,%d)", channel, len(s.channels))
	}
	ch := s.channels[channel]
	if len(ch.live) == 0 {
		return 0, nil
	}
	return ch.totalUplink / float64(len(ch.live)), nil
}

// Estimator exposes a channel's measurement feed for the controller, which
// reads it at the end of each interval and then Resets it.
func (s *Simulator) Estimator(channel int) (Feed, error) {
	if channel < 0 || channel >= len(s.channels) {
		return nil, fmt.Errorf("sim: channel %d outside [0,%d)", channel, len(s.channels))
	}
	return s.channels[channel].estimator, nil
}

// QualitySample is a snapshot of the smooth-playback metric.
type QualitySample struct {
	Time            float64
	Overall         float64   // fraction of viewers smooth over the window
	PerChannel      []float64 // per-channel fraction (1 for empty channels)
	UsersPerChannel []int
}

// SampleQuality measures streaming quality right now: the fraction of
// viewers with no stall inside the trailing window (Fig. 5's metric).
func (s *Simulator) SampleQuality() QualitySample {
	now := s.Now()
	sample := QualitySample{
		Time:            now,
		PerChannel:      make([]float64, len(s.channels)),
		UsersPerChannel: make([]int, len(s.channels)),
	}
	var smooth, total int
	for c, ch := range s.channels {
		chSmooth := 0
		for _, u := range ch.live {
			if u.smoothAt(now, QualityWindowSeconds) {
				chSmooth++
			}
		}
		n := len(ch.live)
		sample.UsersPerChannel[c] = n
		if n == 0 {
			sample.PerChannel[c] = 1
		} else {
			sample.PerChannel[c] = float64(chSmooth) / float64(n)
		}
		smooth += chSmooth
		total += n
	}
	if total == 0 {
		sample.Overall = 1
	} else {
		sample.Overall = float64(smooth) / float64(total)
	}
	return sample
}

// Mode returns the scenario's streaming mode.
func (s *Simulator) Mode() Mode { return s.cfg.Mode }

// ChannelConfig returns the per-channel parameters.
func (s *Simulator) ChannelConfig() queueing.Config { return s.cfg.Channel }

// Channels returns the number of channels.
func (s *Simulator) Channels() int { return len(s.channels) }
