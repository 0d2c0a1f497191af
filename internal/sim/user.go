package sim

import (
	"math"

	"cloudmedia/internal/viewing"
)

// userState tracks where a viewer is in the playback pipeline.
type userState int

const (
	// stateFetching: waiting for the first chunk after joining or seeking;
	// nothing is playing yet (startup/seek latency, not a stall).
	stateFetching userState = iota + 1
	// statePlaying: playing a chunk while the next one downloads behind it.
	statePlaying
	// stateStalled: playback hit the end of the current chunk before the
	// next one arrived — the smooth-playback violation the paper measures.
	stateStalled
)

// user is one VoD viewer. Its events live on its channel's clock, its
// seeks come from the channel's jump clock, and its draws from the
// channel's random stream, which is what lets channels step in parallel
// between control barriers. A user occupies one of its channel's slots
// for life; after it leaves, the slot and the struct are reused by a
// later arrival (see channelState.newUser).
type user struct {
	slot    int32 // index in channelState.slots: the target of its play-ends
	livePos int   // index in channelState.live while watching
	channel *channelState
	sim     *Simulator

	uplink     float64
	owned      []bool
	ownedCount int

	state        userState
	playingChunk int
	nextChunk    int // successor chosen at playback start; -1 = departure
	nextReady    bool
	dl           *download // the in-flight transfer, nil when none
	download     download  // backing for dl: a user fetches one chunk at a time

	// playEndSeq is the sequence number of the armed playback end, 0
	// when none is armed. Clearing it cancels the event: the clock drops
	// a queued play-end whose number no longer matches.
	playEndSeq uint64

	joinedAt     float64
	lastStallEnd float64
	fetchStart   float64 // when the current stateFetching wait began
}

// join initializes the viewer and starts fetching the entry chunk.
func (u *user) join(startChunk int) {
	now := u.channel.clock.Now()
	u.joinedAt = now
	u.lastStallEnd = math.Inf(-1)
	u.state = stateFetching
	u.fetchStart = now
	u.nextChunk = -1
	u.channel.addUser(u)
	u.channel.rearmJump()
	u.startFetch(startChunk)
}

// startFetch begins downloading the chunk, or short-circuits if the user's
// buffer already holds it (chunks stay cached until departure).
func (u *user) startFetch(chunk int) {
	if u.owned[chunk] {
		u.onChunkReady(chunk)
		return
	}
	u.download = download{user: u}
	u.dl = &u.download
	u.channel.pools[chunk].add(u.dl)
}

// onDownloadComplete is called by the pool when a transfer finishes.
func (u *user) onDownloadComplete(chunk int) {
	u.dl = nil
	if !u.owned[chunk] {
		u.owned[chunk] = true
		u.ownedCount++
		u.channel.owners[chunk]++
	}
	u.onChunkReady(chunk)
}

// onChunkReady reacts to a chunk becoming playable.
func (u *user) onChunkReady(chunk int) {
	switch u.state {
	case stateFetching:
		u.beginPlayback(chunk)
	case statePlaying:
		if chunk == u.nextChunk {
			u.nextReady = true
		}
	case stateStalled:
		if chunk == u.nextChunk {
			u.lastStallEnd = u.channel.clock.Now()
			u.beginPlayback(chunk)
		}
	}
}

// beginPlayback starts playing a chunk, chooses the successor per the
// transfer matrix, records the transition for the tracker, and pipelines
// the successor's download behind the playback.
func (u *user) beginPlayback(chunk int) {
	u.state = statePlaying
	u.playingChunk = chunk
	u.nextChunk = u.sampleNext(chunk)
	u.nextReady = false

	if u.nextChunk >= 0 {
		//cloudmedia:allow noloss -- chunk indices come from sampleNext, which stays inside the estimator's domain
		_ = u.channel.estimator.RecordTransition(chunk, u.nextChunk)
		if u.owned[u.nextChunk] {
			u.nextReady = true
		} else {
			u.startFetch(u.nextChunk)
		}
	} else {
		//cloudmedia:allow noloss -- chunk is the currently playing index, always in the estimator's domain
		_ = u.channel.estimator.RecordTransition(chunk, viewing.Departed)
	}

	u.playEndSeq = u.channel.clock.armPlayEnd(u.slot)
}

// onPlayEnd fires when the current chunk's playback time elapses.
func (u *user) onPlayEnd() {
	u.playEndSeq = 0
	if u.nextChunk < 0 {
		u.leave()
		return
	}
	if u.nextReady {
		u.beginPlayback(u.nextChunk)
		return
	}
	// Deadline missed: the user stalls until the in-flight download lands.
	u.state = stateStalled
}

// sampleNext draws the successor chunk from the transfer matrix row, or -1
// for departure.
func (u *user) sampleNext(chunk int) int {
	row := u.sim.cfg.Transfer[chunk]
	x := u.channel.rng.Float64()
	for j, p := range row {
		x -= p
		if x < 0 {
			return j
		}
	}
	return -1
}

// jump seeks to a uniformly random position: the current download (if
// any) is aborted, playback restarts at the target once it is available.
// Seek latency is not counted as a stall. The channel's jump clock picks
// the viewer (see channelState.rearmJump).
func (u *user) jump() {
	target := u.channel.rng.Intn(u.sim.cfg.Channel.Chunks)
	if u.state == statePlaying || u.state == stateStalled {
		//cloudmedia:allow noloss -- target is drawn from rng.Intn(Chunks), inside the estimator's domain
		_ = u.channel.estimator.RecordTransition(u.playingChunk, target)
	}
	if u.dl != nil && u.dl.pool != nil {
		u.dl.pool.remove(u.dl)
		u.dl = nil
	}
	u.playEndSeq = 0
	if u.state == stateStalled {
		// The seek resolves the stall (the user moved elsewhere).
		u.lastStallEnd = u.channel.clock.Now()
	}
	u.state = stateFetching
	u.fetchStart = u.channel.clock.Now()
	u.nextChunk = -1
	u.nextReady = false
	u.startFetch(target)
}

// leave tears the viewer down: events cancelled, downloads aborted, cached
// chunks removed from the channel's supplier counts, and the channel's
// jump clock re-drawn for the viewers left.
func (u *user) leave() {
	u.playEndSeq = 0
	if u.dl != nil && u.dl.pool != nil {
		u.dl.pool.remove(u.dl)
		u.dl = nil
	}
	for chunk, has := range u.owned {
		if has {
			u.channel.owners[chunk]--
		}
	}
	u.channel.removeUser(u)
	u.channel.rearmJump()
}

// smoothAt reports whether the user counts as "smooth playback" for the
// trailing window ending at now. Currently-stalled users are not smooth; a
// startup/seek wait longer than one chunk's playback time also counts as a
// violation (otherwise a starved system would look perfect because nobody
// ever reaches the playing state).
func (u *user) smoothAt(now, window float64) bool {
	if u.state == stateStalled {
		return false
	}
	if u.state == stateFetching && now-u.fetchStart > u.sim.cfg.Channel.ChunkSeconds {
		return false
	}
	return u.lastStallEnd <= now-window
}
