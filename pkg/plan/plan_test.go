package plan_test

import (
	"errors"
	"math"
	"testing"

	"cloudmedia/pkg/plan"
)

// solve runs the analytic pipeline on the paper channel at Λ = 0.25/s.
func solve(t *testing.T, uplink float64) (plan.Equilibrium, plan.PeerSupply) {
	t.Helper()
	ch := plan.PaperChannel()
	m, err := plan.PaperViewing(ch.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := plan.SolveEquilibrium(ch, m, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	supply, err := plan.SolvePeerSupply(eq, m, uplink)
	if err != nil {
		t.Fatal(err)
	}
	return eq, supply
}

func TestPipelineInvariants(t *testing.T) {
	eq, supply := solve(t, 34e3)
	if eq.TotalCapacity() <= 0 {
		t.Fatal("no capacity demanded")
	}
	for i := range supply.PeerSupply {
		if supply.PeerSupply[i] < 0 {
			t.Errorf("chunk %d: negative peer supply", i)
		}
		if supply.PeerSupply[i] > eq.Capacity[i]+1e-9 {
			t.Errorf("chunk %d: peer supply %v exceeds demand %v", i, supply.PeerSupply[i], eq.Capacity[i])
		}
		want := math.Max(0, eq.Capacity[i]-supply.PeerSupply[i])
		if math.Abs(supply.CloudDemand[i]-want) > 1e-6 {
			t.Errorf("chunk %d: residual %v, want %v", i, supply.CloudDemand[i], want)
		}
	}
	if supply.TotalPeerSupply() <= 0 {
		t.Error("peers contributed nothing at 270 Kbps mean uplink")
	}
}

func TestPlannersRespectBudgets(t *testing.T) {
	eq, supply := solve(t, 34e3)
	demands := plan.Demands(0, supply.CloudDemand)
	if len(demands) != eq.Config.Chunks {
		t.Fatalf("demands = %d, want %d", len(demands), eq.Config.Chunks)
	}

	vmPlan, err := plan.PlanVMs(demands, eq.Config.VMBandwidth, plan.DefaultVMClusters(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if vmPlan.CostPerHour > 100 {
		t.Errorf("VM cost %v exceeds budget", vmPlan.CostPerHour)
	}

	storagePlan, err := plan.PlanStorage(demands, eq.Config.ChunkBytes(), plan.DefaultNFSClusters(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(storagePlan.Placements); got != eq.Config.Chunks {
		t.Errorf("placements = %d, want every chunk stored once", got)
	}
	if storagePlan.CostPerHour > 1 {
		t.Errorf("storage cost %v exceeds budget", storagePlan.CostPerHour)
	}
}

func TestInfeasibleBudgetIsDetectable(t *testing.T) {
	eq, supply := solve(t, 0)
	_, err := plan.PlanVMs(plan.Demands(0, supply.CloudDemand), eq.Config.VMBandwidth, plan.DefaultVMClusters(), 0.01)
	if !errors.Is(err, plan.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestViewingBuilders(t *testing.T) {
	for name, build := range map[string]func() (plan.TransferMatrix, error){
		"sequential": func() (plan.TransferMatrix, error) { return plan.Sequential(10, 0.9) },
		"jumps":      func() (plan.TransferMatrix, error) { return plan.SequentialWithJumps(10, 0.9, 0.3) },
		"decaying":   func() (plan.TransferMatrix, error) { return plan.DecayingRetention(10, 0.9, 0.95) },
		"paper":      func() (plan.TransferMatrix, error) { return plan.PaperViewing(10) },
	} {
		m, err := build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: invalid matrix: %v", name, err)
		}
		if m.Size() != 10 {
			t.Errorf("%s: size %d", name, m.Size())
		}
	}
}

// A NaN or infinite peer uplink used to pass the negative-only check and
// come back as NaN cloud demand with no error.
func TestSolvePeerSupplyRejectsNonFiniteUplink(t *testing.T) {
	eq, _ := solve(t, 34e3)
	m, err := plan.PaperViewing(eq.Config.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, uplink := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if supply, err := plan.SolvePeerSupply(eq, m, uplink); err == nil {
			t.Errorf("uplink %v accepted: cloud demand %v", uplink, supply.CloudDemand)
		}
	}
}

// A transfer matrix with a row summing above 1 is rejected, although
// each of its entries lies in [0, 1].
func TestSolvePeerSupplyRejectsRowAboveOne(t *testing.T) {
	eq, _ := solve(t, 34e3)
	m, err := plan.PaperViewing(eq.Config.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range m[0] {
		sum += v
	}
	m[0][0] += 1.2 - sum // row 0 now sums to 1.2
	if m[0][0] > 1 {
		t.Fatalf("test matrix: P[0][0] = %v", m[0][0])
	}
	if supply, err := plan.SolvePeerSupply(eq, m, 34e3); err == nil {
		t.Errorf("row summing to 1.2 accepted: cloud demand %v", supply.CloudDemand)
	}
}
