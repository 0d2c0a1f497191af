package provision

import (
	"fmt"
	"reflect"
	"testing"

	"cloudmedia/internal/cloud"
)

// A steady maxDemands call reuses its output and its key orders.
func TestMaxDemandsSteadyCallAllocatesNothing(t *testing.T) {
	current := demandGrid(24, 8, 1e6)
	future := [][]ChunkDemand{demandGrid(24, 8, 2e6), demandGrid(24, 8, 3e6), demandGrid(24, 8, 4e6)}
	var s planScratch
	s.maxDemands(current, future)
	if allocs := testing.AllocsPerRun(50, func() { s.maxDemands(current, future) }); allocs != 0 {
		t.Errorf("steady maxDemands allocates %.1f times", allocs)
	}
}

// The planners' scratch keeps only working storage: the plans they
// return are fresh, so a later round cannot change an earlier plan.
func TestPlannerScratchDoesNotLeakIntoPlans(t *testing.T) {
	var s planScratch
	clusters := cloud.DefaultVMClusters()
	if fits, err := s.draftVMs(demandGrid(3, 4, 2e6), cloud.DefaultVMBandwidth, clusters, 100); err != nil || !fits {
		t.Fatal(fits, err)
	}
	first := s.publishVMs()
	snapshot := fmt.Sprintf("%+v", first)
	if fits, err := s.draftVMs(demandGrid(3, 4, 9e6), cloud.DefaultVMBandwidth, clusters, 100); err != nil || !fits {
		t.Fatal(fits, err)
	}
	s.publishVMs()
	if got := fmt.Sprintf("%+v", first); got != snapshot {
		t.Errorf("first plan changed after a second round:\n%s\nvs\n%s", got, snapshot)
	}
	fresh, err := PlanVMs(demandGrid(3, 4, 2e6), cloud.DefaultVMBandwidth, clusters, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Errorf("scratch plan differs from a fresh PlanVMs")
	}
}

// Cluster tallies are keyed by name, as the maps they replaced were: two
// specs sharing a name share one free count (the later spec's capacity)
// and one VM total.
func TestPlanVMsDuplicateClusterNamesShareATally(t *testing.T) {
	a := cloud.VMClusterSpec{Name: "a", MaxVMs: 2, PricePerHour: 1, Utility: 2}
	b := cloud.VMClusterSpec{Name: "b", MaxVMs: 50, PricePerHour: 1, Utility: 1}
	a2 := cloud.VMClusterSpec{Name: "a", MaxVMs: 3, PricePerHour: 1, Utility: 1.5}
	plan, err := PlanVMs(demandGrid(1, 2, 4*cloud.DefaultVMBandwidth), cloud.DefaultVMBandwidth, []cloud.VMClusterSpec{a, b, a2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Order by utility: a (2), a2 (1.5), b (1). "a" starts with a2's 3
	// VMs, shared by both specs; b takes the remaining 5.
	want := map[string]float64{"a": 3, "b": 5}
	if !reflect.DeepEqual(plan.VMsPerCluster, want) {
		t.Errorf("VMsPerCluster = %v, want %v", plan.VMsPerCluster, want)
	}
}

// TestLookaheadPublishesOnlyAdoptedPlans: every plan the hedged lookahead
// adopts is the plan PlanVMs builds for the round's hedged target, and a
// held round hands back the last adopted plan, by the hysteresis rule
// applied to VMPlan.TotalVMs.
func TestLookaheadPublishesOnlyAdoptedPlans(t *testing.T) {
	planner := Lookahead{SpotHedge: true}.NewPlanner()
	reqs := sawtoothRequests()
	var last VMPlan
	have, below, held := false, 0, 0
	for round := range 3 * len(reqs) {
		req := reqs[round%len(reqs)]
		res, err := planner.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		target := referenceMaxDemands(req.Demands, req.Future)
		m := hedgeMultiplier(req.Pricing, req.IntervalSeconds)
		for i := range target {
			target[i].Demand *= m
		}
		want, err := PlanVMs(target, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
		if err != nil {
			t.Fatal(err)
		}
		if have && want.TotalVMs() < last.TotalVMs() {
			if below++; below < 2 {
				want = last
				held++
			} else {
				below = 0
			}
		} else {
			below = 0
		}
		if !reflect.DeepEqual(res.VMPlan, want) {
			t.Fatalf("round %d: plan differs from PlanVMs on its target", round)
		}
		last, have = want, true
	}
	if held != 3 {
		t.Errorf("%d of 9 rounds held, want 3", held)
	}
}

// A held lookahead round builds no VM plan: without an NFS catalog (so
// storage keeps its last plan too) it allocates nothing at all.
func TestLookaheadHeldRoundAllocatesNothing(t *testing.T) {
	planner := Lookahead{Hysteresis: 1000}.NewPlanner()
	high := planRequest(demandGrid(4, 8, 4e6))
	low := planRequest(demandGrid(4, 8, 1e6))
	high.NFSClusters, low.NFSClusters = nil, nil
	first, err := planner.Plan(high)
	if err != nil {
		t.Fatal(err)
	}
	var res PlanResult
	allocs := testing.AllocsPerRun(50, func() { res, err = planner.Plan(low) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.VMPlan, first.VMPlan) {
		t.Fatal("setup: low round not held")
	}
	if allocs != 0 {
		t.Errorf("held round allocates %.1f times", allocs)
	}
}

// planWithScaling's infeasible attempts build nothing, and neither does
// the draft it settles on: the whole scale search allocates nothing once
// the scratch has grown.
func TestPlanWithScalingAttemptsAllocateNothing(t *testing.T) {
	var s planScratch
	demands := demandGrid(3, 5, 5e6)
	var scale float64
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		scale, err = s.planWithScaling(demands, cloud.DefaultVMBandwidth, cloud.DefaultVMClusters(), 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if scale >= 1 {
		t.Fatalf("setup: scale %v, want < 1 after infeasible attempts", scale)
	}
	if allocs != 0 {
		t.Errorf("scale search allocates %.1f times", allocs)
	}
}
