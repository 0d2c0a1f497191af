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
//
// It also holds the last greedy pass's draft: the cluster tallies, the
// cost, the utility and its per-channel split, and the allocation count.
// A planner decides from the draft and builds a caller-owned plan only
// for the drafts it adopts (see publishVMs).
type planScratch struct {
	target []ChunkDemand // maxDemands' output
	ranked []int         // sortByDemand's output, a permutation of its input
	spare  []int         // sortByDemand's second radix buffer
	scaled []ChunkDemand // planWithScaling's shrunk demands
	order  []int         // keyOrder of the demands being checked, merged or sorted
	step   []int         // maxDemands' keyOrder of one forecast step
	vms    []cloud.VMClusterSpec
	nfs    []cloud.NFSClusterSpec
	slot   []int     // cluster order position → first position with its name
	free   []float64 // per slot: capacity left
	used   []float64 // per slot: VMs or GB taken
	taken  []bool    // per slot: whether anything was taken

	channels []int     // the demands' distinct channels, ascending
	chanUtil []float64 // per channels entry: utility, summed in greedy order
	chanHit  []bool    // per channels entry: whether anything was allocated
	cost     float64   // the draft's Σ price · amount, $/h
	utility  float64   // the draft's objective
	emitted  int       // the draft's allocation count
	// The VM draft's demands, bandwidth and budget, which publishVMs
	// replays.
	drafted               []ChunkDemand
	vmBandwidth, vmBudget float64
	// An infeasible VM draft's first uncovered chunk and its unmet need.
	short     ChunkDemand
	shortNeed float64
}

// keyLess orders demands by (channel, chunk).
func keyLess(a, b ChunkDemand) bool {
	return a.Channel < b.Channel || a.Channel == b.Channel && a.Chunk < b.Chunk
}

// sameKey reports whether a and b are the same chunk.
func sameKey(a, b ChunkDemand) bool {
	return a.Channel == b.Channel && a.Chunk == b.Chunk
}

// keyOrder returns order refilled with the indices of demands in
// ascending (channel, chunk) order, equal keys by index. The controller
// emits demands in that order already, which one comparison per demand
// confirms; any other list has its indices sorted.
func keyOrder(order []int, demands []ChunkDemand) []int {
	order = slices.Grow(order[:0], len(demands))[:len(demands)]
	ordered := true
	for i := range demands {
		order[i] = i
		if i > 0 && keyLess(demands[i], demands[i-1]) {
			ordered = false
		}
	}
	if !ordered {
		slices.SortFunc(order, func(a, b int) int {
			switch {
			case keyLess(demands[a], demands[b]):
				return -1
			case keyLess(demands[b], demands[a]):
				return 1
			}
			return cmp.Compare(a, b)
		})
	}
	return order
}

// validateDemands checks demand invariants shared by both heuristics and
// reports the first offending demand in input order: a negative identity,
// a bad Δ, or a (channel, chunk) an earlier demand already has.
func (s *planScratch) validateDemands(demands []ChunkDemand) error {
	n, err := len(demands), error(nil)
	for i, d := range demands {
		if d.Channel < 0 || d.Chunk < 0 {
			err = fmt.Errorf("provision: negative chunk identity (%d,%d)", d.Channel, d.Chunk)
		} else {
			err = checkDemand(d)
		}
		if err != nil {
			n = i
			break
		}
	}
	if i := s.firstRepeat(demands[:n]); i >= 0 {
		return fmt.Errorf("provision: duplicate chunk (%d,%d)", demands[i].Channel, demands[i].Chunk)
	}
	return err
}

// firstRepeat returns the smallest index whose (channel, chunk) an
// earlier demand already has, or −1 when every key is unique. In key
// order a repeat sits right after an equal key.
func (s *planScratch) firstRepeat(demands []ChunkDemand) int {
	s.order = keyOrder(s.order, demands)
	first := -1
	for k := 1; k < len(s.order); k++ {
		i := s.order[k]
		if sameKey(demands[s.order[k-1]], demands[i]) && (first < 0 || i < first) {
			first = i
		}
	}
	return first
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

// sortByDemand returns the indices of the demands ordered by descending
// Δ, breaking ties by (channel, chunk) so the greedy pass is
// deterministic and consecutive chunks stay adjacent — that adjacency is
// what lets fractional VM shares of one channel pack onto shared VMs.
// Callers validate first, so every Δ is finite and non-negative and
// every (channel, chunk) unique: the order is total. It takes the
// indices in key order and sorts them stably by Δ alone, which yields
// exactly that order.
//
// A round sorts lists whose order rarely differs: the VM target and the
// current demands, a demand list and its scaled copies. So the last
// sort's permutation is tried first, and kept when one pass confirms it
// puts these demands in strictly increasing order. A strictly increasing
// arrangement under a total order is the sorted one, so the result is
// the same either way. The result is scratch, valid until the next call.
func (s *planScratch) sortByDemand(demands []ChunkDemand) []int {
	if !s.permutationSorts(demands) {
		s.order = keyOrder(s.order, demands)
		ranked := append(s.ranked[:0], s.order...)
		s.ranked, s.spare = radixByDemand(demands, ranked, slices.Grow(s.spare[:0], len(demands))[:len(demands)])
	}
	return s.ranked
}

// permutationSorts reports whether the last sort's permutation, applied
// to demands, orders them strictly by descending Δ, then ascending
// (channel, chunk).
func (s *planScratch) permutationSorts(demands []ChunkDemand) bool {
	if len(s.ranked) != len(demands) {
		return false
	}
	for k := 1; k < len(s.ranked); k++ {
		a, b := demands[s.ranked[k-1]], demands[s.ranked[k]]
		if !(a.Demand > b.Demand || a.Demand == b.Demand && keyLess(a, b)) {
			return false
		}
	}
	return true
}

// radixByDemand sorts the indices a stably by descending Δ of the
// demands they index, with an LSD radix sort over bytes, using b (as
// long as a) as the other buffer, and returns the sorted and the spare
// buffer. For non-negative Δ, ^bits(Δ+0) ascends as Δ descends; the +0
// folds −0 into +0, which Δ comparisons treat as equal. Byte positions
// where every key agrees are skipped.
func radixByDemand(demands []ChunkDemand, a, b []int) (sorted, spare []int) {
	key := func(i int) uint64 { return ^math.Float64bits(demands[i].Demand + 0) }
	and, or := ^uint64(0), uint64(0)
	for _, i := range a {
		k := key(i)
		and &= k
		or |= k
	}
	for shift := 0; shift < 64; shift += 8 {
		if (and^or)>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, i := range a {
			next[key(i)>>shift&0xff]++
		}
		pos := 0
		for digit, count := range next {
			next[digit] = pos
			pos += count
		}
		for _, i := range a {
			digit := key(i) >> shift & 0xff
			b[next[digit]] = i
			next[digit]++
		}
		a, b = b, a
	}
	return a, b
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

// rankChannels lists the distinct channels of demands, ascending, and
// sizes the per-channel utility tallies to match. It reads s.order, which
// a successful validateDemands leaves as the demands' key order.
func (s *planScratch) rankChannels(demands []ChunkDemand) {
	s.channels = s.channels[:0]
	for _, i := range s.order {
		if ch := demands[i].Channel; len(s.channels) == 0 || s.channels[len(s.channels)-1] != ch {
			s.channels = append(s.channels, ch)
		}
	}
	n := len(s.channels)
	s.chanUtil = slices.Grow(s.chanUtil[:0], n)[:n]
	s.chanHit = slices.Grow(s.chanHit[:0], n)[:n]
}

// resetDraft zeroes the draft's totals and per-channel tallies before a
// greedy pass.
func (s *planScratch) resetDraft() {
	s.cost, s.utility, s.emitted = 0, 0, 0
	clear(s.chanUtil)
	clear(s.chanHit)
}

// addUtility credits u to channel ch's utility. Adding per channel in
// greedy order sums each channel exactly as a map keyed by channel did.
// The channels are distinct, ascending and non-negative, so when entry ch
// holds ch, every entry before it holds its own index too: the
// controller's channels 0…n−1 skip the search.
func (s *planScratch) addUtility(ch int, u float64) {
	r := ch
	if r >= len(s.channels) || s.channels[r] != ch {
		r, _ = slices.BinarySearch(s.channels, ch)
	}
	s.chanUtil[r] += u
	s.chanHit[r] = true
}

// utilityPerChannel builds the draft's per-channel utility map, one entry
// per channel that was allocated anything: the plans' UtilityPerChannel.
func (s *planScratch) utilityPerChannel() map[int]float64 {
	n := 0
	for _, hit := range s.chanHit {
		if hit {
			n++
		}
	}
	out := make(map[int]float64, n)
	for r, ch := range s.channels {
		if s.chanHit[r] {
			out[ch] = s.chanUtil[r]
		}
	}
	return out
}

// clusterTotals builds the per-cluster map of the draft's slot totals
// (VMs or GB), one entry per cluster name that was taken from.
func (s *planScratch) clusterTotals(name func(k int) string) map[string]float64 {
	n := 0
	for k, first := range s.slot {
		if first == k && s.taken[k] {
			n++
		}
	}
	out := make(map[string]float64, n)
	for k, first := range s.slot {
		if first == k && s.taken[k] {
			out[name(k)] = s.used[k]
		}
	}
	return out
}
