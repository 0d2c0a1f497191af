package provision

import (
	"fmt"
	"math"
	"slices"

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
	return s.planVMs(demands, vmBandwidth, clusters, budgetPerHour)
}

// planVMs is PlanVMs on the planner's scratch. Clusters are tracked per
// name, as a map keyed by name would track them: slot[k] is the first
// position in the utility order holding order[k]'s name, and each slot's
// free count and VM total advance in the same sequence a map entry did.
func (s *planScratch) planVMs(demands []ChunkDemand, vmBandwidth float64, clusters []cloud.VMClusterSpec, budgetPerHour float64) (VMPlan, error) {
	if err := s.validateDemands(demands); err != nil {
		return VMPlan{}, err
	}
	if vmBandwidth <= 0 {
		return VMPlan{}, fmt.Errorf("provision: non-positive VM bandwidth %v", vmBandwidth)
	}
	if len(clusters) == 0 {
		return VMPlan{}, fmt.Errorf("provision: no VM clusters")
	}
	if budgetPerHour < 0 {
		return VMPlan{}, fmt.Errorf("provision: negative VM budget %v", budgetPerHour)
	}
	for _, c := range clusters {
		if err := c.Validate(); err != nil {
			return VMPlan{}, err
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
	s.slotClusters(len(order), func(k int) string { return order[k].Name })
	for k, c := range order {
		s.free[s.slot[k]] = float64(c.MaxVMs)
	}

	plan := VMPlan{UtilityPerChannel: make(map[int]float64)}
	nonzero := 0
	for _, d := range demands {
		if d.Demand/vmBandwidth != 0 {
			nonzero++
		}
	}
	plan.Allocations = make([]VMAllocation, 0, nonzero+len(order)-1)

	for _, d := range s.sortByDemand(demands) {
		need := d.Demand / vmBandwidth
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
			if maxAffordable := (budgetPerHour - plan.CostPerHour) / c.PricePerHour; take > maxAffordable {
				take = maxAffordable
			}
			if take <= 1e-12 {
				continue
			}
			s.free[slot] -= take
			s.used[slot] += take
			s.taken[slot] = true
			plan.CostPerHour += take * c.PricePerHour
			plan.Utility += c.Utility * take
			plan.UtilityPerChannel[d.Channel] += c.Utility * take
			plan.Allocations = append(plan.Allocations, VMAllocation{
				Channel: d.Channel, Chunk: d.Chunk, Cluster: c.Name, VMs: take,
			})
			need -= take
		}
		if need > 1e-9 {
			return VMPlan{}, fmt.Errorf(
				"%w: chunk (%d,%d) still needs %.3f VMs with budget $%.2f/h", ErrInfeasible, d.Channel, d.Chunk, need, budgetPerHour)
		}
	}
	if len(plan.Allocations) == 0 {
		plan.Allocations = nil // an empty plan keeps a nil list: records marshal it as null
	}
	plan.VMsPerCluster = make(map[string]float64, len(order))
	for k, c := range order {
		if s.slot[k] == k && s.taken[k] {
			plan.VMsPerCluster[c.Name] = s.used[k]
		}
	}
	return plan, nil
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
