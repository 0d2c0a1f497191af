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
	first, err := s.planVMs(demandGrid(3, 4, 2e6), cloud.DefaultVMBandwidth, clusters, 100)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := fmt.Sprintf("%+v", first)
	if _, err := s.planVMs(demandGrid(3, 4, 9e6), cloud.DefaultVMBandwidth, clusters, 100); err != nil {
		t.Fatal(err)
	}
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
