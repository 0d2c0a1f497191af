package provision

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"cloudmedia/internal/cloud"
)

// VMAllocation records the (possibly fractional) number of VMs from one
// virtual cluster assigned to serve one chunk: z(c,i,v) of Eqn. (7).
type VMAllocation struct {
	Channel int
	Chunk   int
	Cluster string
	VMs     float64
}

// VMPlan is the outcome of the VM-configuration heuristic.
type VMPlan struct {
	// Allocations lists every z > 0 entry, in greedy order.
	Allocations []VMAllocation
	// VMsPerCluster sums fractional allocations per cluster.
	VMsPerCluster map[string]float64
	// CostPerHour is Σ p̃_v · z, dollars per hour (the budget constraint).
	CostPerHour float64
	// Utility is the objective value Σ ũ_v · z.
	Utility float64
	// UtilityPerChannel splits the objective by channel — Fig. 9's series.
	UtilityPerChannel map[int]float64
}

// RentalVMs returns the integer VM count to actually rent from each
// cluster: fractional shares pack onto shared VMs (consecutive chunks of a
// channel preferentially share, which the greedy order's stable tie-break
// arranges), so the rental is the ceiling of the cluster total.
func (p VMPlan) RentalVMs() map[string]int {
	out := make(map[string]int, len(p.VMsPerCluster))
	for name, v := range p.VMsPerCluster {
		out[name] = int(math.Ceil(v - 1e-9))
	}
	return out
}

// TotalVMs returns the fractional VM total across clusters, summed in
// sorted cluster order so the float result does not depend on map
// iteration order.
func (p VMPlan) TotalVMs() float64 {
	var buf [8]string // catalogs are small: no allocation up to 8 clusters
	names := buf[:0]
	for name := range p.VMsPerCluster {
		names = append(names, name)
	}
	slices.Sort(names)
	var t float64
	for _, name := range names {
		t += p.VMsPerCluster[name]
	}
	return t
}

// PlanVMs runs the VM-configuration heuristic of Sec. V-A2. vmBandwidth is
// R in bytes/s; budgetPerHour is B_M. Each chunk needs Δ/R VMs; demand is
// filled from clusters in descending ũ_v/p̃_v order, splitting across
// clusters when the best one runs out of VMs.
func PlanVMs(demands []ChunkDemand, vmBandwidth float64, clusters []cloud.VMClusterSpec, budgetPerHour float64) (VMPlan, error) {
	var s planScratch
	fits, err := s.draftVMs(demands, vmBandwidth, clusters, budgetPerHour)
	if err == nil && !fits {
		err = s.shortfall()
	}
	if err != nil {
		return VMPlan{}, err
	}
	return s.publishVMs(), nil
}

// draftVMs is PlanVMs into the planner's draft: it runs the greedy pass
// and keeps its outcome in the scratch without building a plan. A planner
// reads the draft's total from draftTotalVMs and builds the plan it
// adopts with publishVMs. It reports false when the budget or the
// clusters cannot cover some chunk, which shortfall then describes; an
// infeasible draft allocates nothing. Clusters are tracked per name, as
// a map keyed by name would track them: slot[k] is the first position in
// the utility order holding order[k]'s name, and each slot's free count
// and VM total advance in the same sequence a map entry did.
func (s *planScratch) draftVMs(demands []ChunkDemand, vmBandwidth float64, clusters []cloud.VMClusterSpec, budgetPerHour float64) (bool, error) {
	if err := s.validateDemands(demands); err != nil {
		return false, err
	}
	if vmBandwidth <= 0 {
		return false, fmt.Errorf("provision: non-positive VM bandwidth %v", vmBandwidth)
	}
	if len(clusters) == 0 {
		return false, fmt.Errorf("provision: no VM clusters")
	}
	if budgetPerHour < 0 {
		return false, fmt.Errorf("provision: negative VM budget %v", budgetPerHour)
	}
	for _, c := range clusters {
		if err := c.Validate(); err != nil {
			return false, err
		}
	}

	// Descending marginal utility, stable. The comparator is negative
	// exactly when ma > mb, so the stable sort takes the steps
	// sort.SliceStable takes with that less, whatever the utilities (NaN
	// too).
	order := append(s.vms[:0], clusters...)
	s.vms = order
	slices.SortStableFunc(order, func(a, b cloud.VMClusterSpec) int {
		switch ma, mb := a.MarginalUtility(), b.MarginalUtility(); {
		case ma > mb:
			return -1
		case ma < mb:
			return 1
		}
		return 0
	})
	s.rankChannels(demands)
	s.sortByDemand(demands)
	s.drafted, s.vmBandwidth, s.vmBudget = demands, vmBandwidth, budgetPerHour
	return s.vmPass(nil), nil
}

// vmPass runs the greedy VM pass over the drafted demands in s.ranked's
// order on s.vms from fresh tallies, writing the k-th allocation to
// out[k] when out is non-nil. It is deterministic in what it reads, so a
// replay with out sized to the draft's allocation count emits exactly
// the draft's allocations, provided the drafted demands are unchanged.
// It reports false at the first chunk it cannot cover, recording the
// chunk and its unmet need for shortfall.
func (s *planScratch) vmPass(out []VMAllocation) bool {
	order := s.vms
	s.slotClusters(len(order), func(k int) string { return order[k].Name })
	for k, c := range order {
		s.free[s.slot[k]] = float64(c.MaxVMs)
	}
	s.resetDraft()
	for _, i := range s.ranked {
		d := s.drafted[i]
		need := d.Demand / s.vmBandwidth
		if need == 0 {
			continue
		}
		for k, c := range order {
			if need <= 1e-12 {
				break
			}
			slot := s.slot[k]
			avail := s.free[slot]
			if avail <= 1e-12 {
				continue
			}
			take := math.Min(need, avail)
			// Respect the budget: shrink the take if it would overshoot.
			if maxAffordable := (s.vmBudget - s.cost) / c.PricePerHour; take > maxAffordable {
				take = maxAffordable
			}
			if take <= 1e-12 {
				continue
			}
			s.free[slot] -= take
			s.used[slot] += take
			s.taken[slot] = true
			s.cost += take * c.PricePerHour
			s.utility += c.Utility * take
			s.addUtility(d.Channel, c.Utility*take)
			if out != nil {
				out[s.emitted] = VMAllocation{Channel: d.Channel, Chunk: d.Chunk, Cluster: c.Name, VMs: take}
			}
			s.emitted++
			need -= take
		}
		if need > 1e-9 {
			s.short, s.shortNeed = d, need
			return false
		}
	}
	return true
}

// shortfall is the error of an infeasible draft: the chunk it could not
// cover and the VMs that chunk still needed.
func (s *planScratch) shortfall() error {
	return fmt.Errorf("%w: chunk (%d,%d) still needs %.3f VMs with budget $%.2f/h",
		ErrInfeasible, s.short.Channel, s.short.Chunk, s.shortNeed, s.vmBudget)
}

// draftTotalVMs is TotalVMs of the plan publishVMs would build from the
// current draft: the per-name VM totals summed in sorted name order, so
// a planner can compare drafts bit for bit with the plans it published.
func (s *planScratch) draftTotalVMs() float64 {
	var buf [8]int // catalogs are small: no allocation up to 8 clusters
	names := buf[:0]
	for k, first := range s.slot {
		if first == k && s.taken[k] {
			names = append(names, k)
		}
	}
	slices.SortFunc(names, func(a, b int) int { return strings.Compare(s.vms[a].Name, s.vms[b].Name) })
	var t float64
	for _, k := range names {
		t += s.used[k]
	}
	return t
}

// publishVMs builds the caller-owned plan of the current draft, which
// must have succeeded and whose demands must be unchanged: it replays
// the greedy pass to emit the draft's allocations into a list of exactly
// their number, and builds the maps from the draft's tallies. Nothing in
// the plan is shared with the scratch.
func (s *planScratch) publishVMs() VMPlan {
	var plan VMPlan
	if s.emitted > 0 { // an empty plan keeps a nil list: records marshal it as null
		plan.Allocations = make([]VMAllocation, s.emitted)
		s.vmPass(plan.Allocations) // the draft's pass again, on the same scratch: it fits
	}
	plan.CostPerHour, plan.Utility = s.cost, s.utility
	plan.UtilityPerChannel = s.utilityPerChannel()
	plan.VMsPerCluster = s.clusterTotals(func(k int) string { return s.vms[k].Name })
	return plan
}

// CapacityPerChunk converts a VM plan back into the per-chunk upload
// capacity (bytes/s) the cloud will provide, keyed by (channel, chunk).
func (p VMPlan) CapacityPerChunk(vmBandwidth float64) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(p.Allocations))
	for _, a := range p.Allocations {
		out[[2]int{a.Channel, a.Chunk}] += a.VMs * vmBandwidth
	}
	return out
}
