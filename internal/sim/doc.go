// Package sim is the discrete-event VoD streaming simulator that replaces
// the paper's physical testbed (Sec. VI-A): user swarms emulated by the
// workload trace, a tracker per channel, fluid chunk-download pools fed by
// cloud VMs and (in P2P mode) peer uplinks, playback with stall tracking,
// and the measurement hooks the controller and experiments need.
//
// # Model
//
// Each (channel, chunk) pair owns a download pool with a capacity in
// bytes/s: the cloud-provisioned share Δ (set by the controller through
// SetCloudCapacity) plus, in P2P mode, the peer share Γ reallocated every
// rebalance interval by rarest-first scheduling over the channel's chunk
// ownership counts. Concurrent downloads in a pool share its capacity
// processor-style, individually capped at the per-VM bandwidth R; download
// completions are rescheduled whenever pool membership or capacity changes.
// This realizes the M/M/m abstraction of the analysis: m servers of rate R
// serving the chunk's download queue.
//
// Users follow the paper's viewing model: they arrive per channel as a
// non-homogeneous Poisson process, start at chunk 1 with probability α
// (uniformly elsewhere otherwise), pipeline the next chunk's download
// behind the current chunk's playback, move between chunks according to the
// transfer matrix, jump to random positions at exponential intervals, and
// keep every downloaded chunk cached until they leave. A user whose next
// chunk misses its playback deadline stalls; the streaming-quality metric
// is the fraction of users with no stall in the trailing window (5 minutes
// in the paper). A channel's viewers jump through one superposed clock of
// rate n/JumpMeanSeconds for n watching viewers (channelState.rearmJump).
//
// Each channel steps on its own clock of fixed timers and a play-end
// lane (clock). Engine is the control clock both engines embed, the one
// place that paces, advances and runs callbacks: its RunUntil moves the
// embedding engine's state to each control callback (Simulator's
// advanceChannels, the fluid engine's integrateTo), calling Config.Pacer
// first, and then runs the callbacks due there. The simulator is
// single-threaded and deterministic for a given seed.
package sim
