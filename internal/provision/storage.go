package provision

import (
	"fmt"
	"slices"

	"cloudmedia/internal/cloud"
)

// StoragePlacement records where one chunk is stored.
type StoragePlacement struct {
	Channel int
	Chunk   int
	Cluster string
}

// StoragePlan is the outcome of the storage-rental heuristic.
type StoragePlan struct {
	// Placements lists every chunk's NFS cluster, in greedy order.
	Placements []StoragePlacement
	// GBPerCluster is the storage footprint per cluster.
	GBPerCluster map[string]float64
	// CostPerHour is Σ p_f · rT₀ · x, dollars per hour.
	CostPerHour float64
	// Utility is the objective value Σ u_f · Δ_i · x_if.
	Utility float64
	// UtilityPerChannel splits the objective by channel — the quantity
	// plotted in Fig. 8.
	UtilityPerChannel map[int]float64
}

// PlanStorage runs the storage-rental heuristic of Sec. V-A1. chunkBytes is
// the uniform chunk size rT₀ in bytes; budgetPerHour is B_S. Every chunk is
// stored exactly once or the plan is infeasible.
func PlanStorage(demands []ChunkDemand, chunkBytes float64, clusters []cloud.NFSClusterSpec, budgetPerHour float64) (StoragePlan, error) {
	var s planScratch
	return s.planStorage(demands, chunkBytes, clusters, budgetPerHour)
}

// planStorage is PlanStorage on the planner's scratch, tracking clusters
// per name as draftVMs does.
func (s *planScratch) planStorage(demands []ChunkDemand, chunkBytes float64, clusters []cloud.NFSClusterSpec, budgetPerHour float64) (StoragePlan, error) {
	if err := s.validateDemands(demands); err != nil {
		return StoragePlan{}, err
	}
	if chunkBytes <= 0 {
		return StoragePlan{}, fmt.Errorf("provision: non-positive chunk size %v", chunkBytes)
	}
	if len(clusters) == 0 {
		return StoragePlan{}, fmt.Errorf("provision: no NFS clusters")
	}
	if budgetPerHour < 0 {
		return StoragePlan{}, fmt.Errorf("provision: negative storage budget %v", budgetPerHour)
	}
	for _, c := range clusters {
		if err := c.Validate(); err != nil {
			return StoragePlan{}, err
		}
	}

	// Clusters by marginal utility per unit cost u_f/p_f, best first,
	// stable, with draftVMs' comparator shape.
	order := append(s.nfs[:0], clusters...)
	s.nfs = order
	slices.SortStableFunc(order, func(a, b cloud.NFSClusterSpec) int {
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
		s.free[s.slot[k]] = c.CapacityGB
	}

	chunkGB := chunkBytes / 1e9
	plan := StoragePlan{Placements: make([]StoragePlacement, 0, len(demands))}
	s.rankChannels(demands)
	s.resetDraft()
	for _, i := range s.sortByDemand(demands) {
		d := demands[i]
		placed := false
		for k, c := range order {
			slot := s.slot[k]
			if s.free[slot] < chunkGB {
				continue
			}
			cost := c.PricePerGBHour * chunkGB
			if plan.CostPerHour+cost > budgetPerHour+1e-12 {
				// The paper spends budget in greedy order; once the best
				// available cluster busts the budget, cheaper clusters might
				// still fit, so keep scanning.
				continue
			}
			s.free[slot] -= chunkGB
			s.used[slot] += chunkGB
			s.taken[slot] = true
			plan.CostPerHour += cost
			plan.Utility += c.Utility * d.Demand
			s.addUtility(d.Channel, c.Utility*d.Demand)
			plan.Placements = append(plan.Placements, StoragePlacement{
				Channel: d.Channel, Chunk: d.Chunk, Cluster: c.Name,
			})
			placed = true
			break
		}
		if !placed {
			return StoragePlan{}, fmt.Errorf(
				"%w: chunk (%d,%d) unplaceable with budget $%.4f/h", ErrInfeasible, d.Channel, d.Chunk, budgetPerHour)
		}
	}
	if len(plan.Placements) == 0 {
		plan.Placements = nil // an empty plan keeps a nil list: records marshal it as null
	}
	plan.UtilityPerChannel = s.utilityPerChannel()
	plan.GBPerCluster = s.clusterTotals(func(k int) string { return order[k].Name })
	return plan, nil
}
