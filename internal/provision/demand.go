package provision

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"cloudmedia/internal/cloud"
)

// ErrInfeasible signals that the configured budget (or total cluster
// capacity) cannot accommodate the demand; per the paper, the VoD provider
// should increase the corresponding budget.
var ErrInfeasible = errors.New("provision: budget or capacity infeasible")

// ChunkDemand is the provisioning unit: one chunk of one channel and its
// required cloud upload capacity E[Δ] in bytes/s, as produced by the
// queueing (client-server) or p2p (peer-assisted) analysis.
type ChunkDemand struct {
	Channel int     // channel index c
	Chunk   int     // chunk index i within the channel
	Demand  float64 // Δ(c,i), bytes/s
}

// planScratch is the working storage the planning heuristics reuse from
// round to round. A planner keeps one; nothing in it is ever part of a
// returned plan, so the plans a round returns stay the caller's to keep.
// The zero value is ready, and the package-level PlanVMs and PlanStorage
// run on a fresh one.
type planScratch struct {
	target []ChunkDemand   // maxDemands' output
	sorted []ChunkDemand   // sortByDemand's copy
	scaled []ChunkDemand   // planWithScaling's shrunk demands
	index  map[[2]int]int  // maxDemands' key index
	seen   map[[2]int]bool // validateDemands' duplicate set
	vms    []cloud.VMClusterSpec
	nfs    []cloud.NFSClusterSpec
	slot   []int     // cluster order position → first position with its name
	free   []float64 // per slot: capacity left
	used   []float64 // per slot: VMs or GB taken
	taken  []bool    // per slot: whether anything was taken
}

// validateDemands checks demand invariants shared by both heuristics.
// The duplicate set is scratch, cleared on every call.
func (s *planScratch) validateDemands(demands []ChunkDemand) error {
	if s.seen == nil {
		s.seen = make(map[[2]int]bool, len(demands))
	}
	seen := s.seen
	clear(seen)
	for _, d := range demands {
		if d.Channel < 0 || d.Chunk < 0 {
			return fmt.Errorf("provision: negative chunk identity (%d,%d)", d.Channel, d.Chunk)
		}
		if err := checkDemand(d); err != nil {
			return err
		}
		key := [2]int{d.Channel, d.Chunk}
		if seen[key] {
			return fmt.Errorf("provision: duplicate chunk (%d,%d)", d.Channel, d.Chunk)
		}
		seen[key] = true
	}
	return nil
}

// checkDemand rejects a negative or non-finite Δ. The comparison is
// written so NaN fails it; the MaxFloat64 bound rules out +Inf.
func checkDemand(d ChunkDemand) error {
	if !(d.Demand >= 0 && d.Demand <= math.MaxFloat64) {
		return fmt.Errorf("provision: demand %v for chunk (%d,%d) not non-negative and finite", d.Demand, d.Channel, d.Chunk)
	}
	return nil
}

// checkHorizon applies checkDemand to the current demands and every
// forecast step. The horizon planners need it before maxDemands, which
// would otherwise let a forecast mask a bad current Δ or drop a NaN
// forecast unseen (NaN > x is false).
func checkHorizon(current []ChunkDemand, future [][]ChunkDemand) error {
	for _, d := range current {
		if err := checkDemand(d); err != nil {
			return err
		}
	}
	for step, demands := range future {
		for _, d := range demands {
			if err := checkDemand(d); err != nil {
				return fmt.Errorf("forecast step %d: %w", step, err)
			}
		}
	}
	return nil
}

// sortByDemand returns the demands ordered by descending Δ, breaking ties
// by (channel, chunk) so the greedy pass is deterministic and consecutive
// chunks stay adjacent — that adjacency is what lets fractional VM shares
// of one channel pack onto shared VMs. Callers validate first, so every
// Δ is finite and every (channel, chunk) unique: the key is a total order
// and the sorted output is the only one possible, which lets an unstable
// sort produce it. The result is scratch, valid until the next call.
func (s *planScratch) sortByDemand(demands []ChunkDemand) []ChunkDemand {
	out := append(s.sorted[:0], demands...)
	s.sorted = out
	slices.SortFunc(out, func(a, b ChunkDemand) int {
		if a.Demand != b.Demand {
			if a.Demand > b.Demand {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.Channel, b.Channel); c != 0 {
			return c
		}
		return cmp.Compare(a.Chunk, b.Chunk)
	})
	return out
}

// slotClusters fills s.slot for n clusters in planning order, mapping
// each position to the first position that carries the same name, and
// zeroes the per-slot free, used and taken tallies.
func (s *planScratch) slotClusters(n int, name func(k int) string) {
	s.slot = slices.Grow(s.slot[:0], n)[:n]
	s.free = slices.Grow(s.free[:0], n)[:n]
	s.used = slices.Grow(s.used[:0], n)[:n]
	s.taken = slices.Grow(s.taken[:0], n)[:n]
	clear(s.free)
	clear(s.used)
	clear(s.taken)
	for k := range n {
		s.slot[k] = k
		for first := range k {
			if name(first) == name(k) {
				s.slot[k] = first
				break
			}
		}
	}
}
