// Package fluid is the aggregate simulation backend: a deterministic
// fluid-cohort model of the CloudMedia VoD system with O(channels ×
// chunks) state, independent of the viewer count.
//
// Where the discrete-event engine (internal/sim) tracks every viewer as
// an object — its playback position, cached chunks, and several scheduled
// events per chunk transition — this package tracks *cohorts*: the
// expected number of viewers playing each chunk and the expected number
// waiting on each chunk's download, advanced in fixed steps through the
// flow-balance equations the paper's Sec. IV Jackson analysis is built
// on. Arrivals, playback completions, VCR jumps, and departures become
// continuous flows; download queues become demand-vs-capacity deficits.
// The step update is exact in the step length for the linear flows —
// exponential playback, jump and quality-window factors and a
// closed-form drain of each download queue — so the step bounds
// accuracy, not stability. A million-viewer day integrates in
// milliseconds because the crowd size only changes the magnitudes of the
// flows, never the amount of state.
//
// A channel's step is a row pass (completions and jumps leave each
// playing cohort) and a chunk pass (each queue gathers its inflow along
// the transfer matrix P, drains, and scores quality) around the peer
// split, which budgets from the step's mean viewer stock: the trapezoid
// of the stock before and after the row pass. The gather is O(J): P is
// split once as one share on every off-diagonal cell plus a sparse
// remainder, and the share's part comes from prefix and suffix sums of
// the completion flows. The measurement feed keeps per source chunk only
// the completion and jump sums Cᵢ and Uᵢ, and rebuilds the transitions
// once per read as Tᵢₖ = Pᵢₖ·Cᵢ + Uᵢ/J.
//
// The fidelity trade-offs (what the fluid model drops relative to the
// event engine) are documented in DESIGN.md's "Engine fidelities"
// section; the cross-validation test in internal/experiments pins the
// two engines against each other on the paper's Fig. 4/5 scenarios.
package fluid
