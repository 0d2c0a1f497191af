package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

// buildStack assembles a simulator + cloud + broker for seam tests,
// returning the pieces so each test can pick its own controller Options.
func buildStack(t *testing.T) (*sim.Simulator, *cloud.Cloud, *cloud.Broker, queueing.TransferMatrix) {
	t.Helper()
	s, cl, _ := testSystem(t, sim.ClientServer)
	broker, err := cloud.NewBroker(cl)
	if err != nil {
		t.Fatal(err)
	}
	return s, cl, broker, testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
}

func flatInputs(s *sim.Simulator, transfer queueing.TransferMatrix, rate float64) []ChannelInput {
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		inputs[c] = ChannelInput{ArrivalRate: rate, Transfer: transfer}
	}
	return inputs
}

// TestStorageInfeasibilityIsVisible: a failed storage plan lands on the
// IntervalRecord instead of being silently swallowed (the controller used
// to keep the stale plan with no trace).
func TestStorageInfeasibilityIsVisible(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	opts := resolvedOptions(transfer)
	opts.StorageBudgetPerHour = 1e-12 // no chunk is placeable under this budget
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, flatInputs(s, transfer, 0.2))
	recs := *rounds
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if rec.StorageErr == "" {
		t.Fatal("storage infeasibility not recorded on the IntervalRecord")
	}
	if !strings.Contains(rec.StorageErr, "unplaceable") {
		t.Errorf("StorageErr = %q, want the PlanStorage infeasibility", rec.StorageErr)
	}
	if len(rec.StoragePlan.Placements) != 0 {
		t.Errorf("failed round still produced %d placements", len(rec.StoragePlan.Placements))
	}
	// The VM side of the round must be unaffected.
	if rec.PlanErr != "" {
		t.Errorf("VM planning failed too: %v", rec.PlanErr)
	}
	if len(rec.VMPlan.Allocations) == 0 {
		t.Error("VM plan missing despite a storage-only failure")
	}
	if rec.SubmitErr != "" {
		t.Errorf("SubmitErr = %q after a storage-only failure", rec.SubmitErr)
	}
}

// TestVMPlanFailureIsVisible pins the companion path: when VM planning
// fails outright, the empty round records the error instead of silently
// keeping the previous rental.
func TestVMPlanFailureIsVisible(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	// A negative budget is rejected by PlanVMs with a non-infeasible
	// error, which planWithScaling passes straight through — the
	// planning-failed path without any scale search.
	opts := resolvedOptions(transfer)
	opts.VMBudgetPerHour = -1
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, flatInputs(s, transfer, 0.5))
	rec := (*rounds)[0]
	if rec.PlanErr == "" {
		t.Fatal("failed VM planning round recorded no PlanErr")
	}
	if len(rec.VMPlan.Allocations) != 0 {
		t.Error("failed round carries a VM plan")
	}
}

// TestDemandErrorsAreVisible: a channel whose demand analysis fails is
// planned at zero demand and counted on the record, whose DemandErr
// carries the first error in channel order — the same record for every
// controller worker count.
func TestDemandErrorsAreVisible(t *testing.T) {
	ensureParallelHost(t, 4)
	var serial IntervalRecord
	for _, workers := range []int{1, 4} {
		s, cl, broker, transfer := buildStack(t)
		opts := resolvedOptions(transfer)
		opts.Workers = workers
		ctl, err := NewController(s, cl, broker, opts)
		if err != nil {
			t.Fatal(err)
		}
		inputs := flatInputs(s, transfer, 0) // idle channels size nothing
		for ch := 1; ch < len(inputs); ch++ {
			// An offered load of millions of servers per chunk: beyond
			// queueing.DefaultMaxServers, so its sizing fails.
			inputs[ch].ArrivalRate = 1e6
		}
		rounds := recordRounds(ctl)
		ctl.Provision(0, inputs)
		rec := (*rounds)[0]
		if want := len(inputs) - 1; rec.DemandErrors != want {
			t.Fatalf("Workers=%d: DemandErrors = %d, want %d", workers, rec.DemandErrors, want)
		}
		if rec.TotalDemand != 0 {
			t.Errorf("Workers=%d: failed channels still demand %v", workers, rec.TotalDemand)
		}
		if !strings.HasPrefix(rec.DemandErr, "channel 1: core: demand analysis: queueing: sizing chunk") {
			t.Errorf("Workers=%d: DemandErr %q, want channel 1's sizing error", workers, rec.DemandErr)
		}
		if workers == 1 {
			serial = rec
		} else if !reflect.DeepEqual(serial, rec) {
			t.Errorf("Workers=%d: record %+v diverged from serial %+v", workers, rec, serial)
		}
	}
}

// overPlanPolicy plans its first round with Greedy, then asks for one VM
// more than the first cluster's MaxVMs: a plan the broker must reject.
type overPlanPolicy struct{}

func (overPlanPolicy) Name() string   { return "overplan" }
func (overPlanPolicy) Lookahead() int { return 0 }
func (overPlanPolicy) Oracle() bool   { return false }
func (overPlanPolicy) NewPlanner() provision.Planner {
	return &overPlanner{inner: provision.Greedy{}.NewPlanner()}
}

type overPlanner struct {
	inner  provision.Planner
	rounds int
}

func (p *overPlanner) Plan(req provision.PlanRequest) (provision.PlanResult, error) {
	p.rounds++
	if p.rounds == 1 {
		return p.inner.Plan(req)
	}
	spec := req.VMClusters[0]
	vms := float64(spec.MaxVMs + 1)
	return provision.PlanResult{
		VMPlan: provision.VMPlan{
			Allocations:   []provision.VMAllocation{{Channel: 0, Chunk: 0, Cluster: spec.Name, VMs: vms}},
			VMsPerCluster: map[string]float64{spec.Name: vms},
		},
		DemandScale: 1,
	}, nil
}

// TestRejectedSubmitIsVisible: a plan the broker rejects is recorded on
// the round's SubmitErr, and the previous round's chunk capacities stay
// applied.
func TestRejectedSubmitIsVisible(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	opts := resolvedOptions(transfer)
	opts.Policy = overPlanPolicy{}
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := recordRounds(ctl)
	channelCaps := func() []float64 {
		out := make([]float64, s.Channels())
		for ch := range out {
			if out[ch], err = s.CloudCapacity(ch); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ctl.Provision(0, flatInputs(s, transfer, 0.2))
	s.RunUntil(cl.BootLatency() + 1) // the first plan's VMs have booted
	chunkCaps, caps := slices.Clone(ctl.caps), channelCaps()
	if s.TotalCloudCapacity() <= 0 {
		t.Fatal("first plan applied no capacity")
	}

	now := s.Now()
	ctl.Provision(now, flatInputs(s, transfer, 0.2))
	s.RunUntil(now + cl.BootLatency() + 1)
	recs := *rounds
	if len(recs) != 2 || recs[0].SubmitErr != "" {
		t.Fatalf("%d records, first SubmitErr %q; want 2, the first accepted", len(recs), recs[0].SubmitErr)
	}
	if !strings.Contains(recs[1].SubmitErr, cloud.ErrCapacity.Error()) {
		t.Errorf("SubmitErr %q, want the broker's capacity rejection", recs[1].SubmitErr)
	}
	if !reflect.DeepEqual(ctl.caps, chunkCaps) {
		t.Errorf("chunk capacities %v after the rejected submit, want the previous %v", ctl.caps, chunkCaps)
	}
	if got := channelCaps(); !reflect.DeepEqual(got, caps) {
		t.Errorf("channel capacities %v after the rejected submit, want the previous %v", got, caps)
	}
}

// capturePolicy records the PlanRequest the controller builds and
// delegates planning to Greedy — a seam probe.
type capturePolicy struct {
	lookahead int
	oracle    bool
	reqs      *[]provision.PlanRequest
}

func (p capturePolicy) Name() string   { return "capture" }
func (p capturePolicy) Lookahead() int { return p.lookahead }
func (p capturePolicy) Oracle() bool   { return p.oracle }
func (p capturePolicy) NewPlanner() provision.Planner {
	return &capturePlanner{policy: p, inner: provision.Greedy{}.NewPlanner()}
}

type capturePlanner struct {
	policy capturePolicy
	inner  provision.Planner
}

func (p *capturePlanner) Plan(req provision.PlanRequest) (provision.PlanResult, error) {
	*p.policy.reqs = append(*p.policy.reqs, req)
	return p.inner.Plan(req)
}

// TestControllerFillsPlanRequest pins the seam contract: budgets, catalog,
// chunk size, and exactly Lookahead() future forecasts reach the policy.
func TestControllerFillsPlanRequest(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	var reqs []provision.PlanRequest
	opts := resolvedOptions(transfer)
	opts.VMBudgetPerHour = 42
	opts.Policy = capturePolicy{lookahead: 2, reqs: &reqs}
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Provision(0, flatInputs(s, transfer, 0.2))
	if len(reqs) != 1 {
		t.Fatalf("policy saw %d requests, want 1", len(reqs))
	}
	req := reqs[0]
	if req.VMBudgetPerHour != 42 {
		t.Errorf("VMBudgetPerHour = %v", req.VMBudgetPerHour)
	}
	if len(req.VMClusters) != len(cl.VMClusters()) || len(req.NFSClusters) != len(cl.NFSClusters()) {
		t.Error("catalog did not reach the policy")
	}
	if req.ChunkBytes != s.ChannelConfig().ChunkBytes() {
		t.Errorf("ChunkBytes = %v, want %v", req.ChunkBytes, s.ChannelConfig().ChunkBytes())
	}
	if want := s.Channels() * s.ChannelConfig().Chunks; len(req.Demands) != want {
		t.Errorf("demands = %d, want %d", len(req.Demands), want)
	}
	if len(req.Future) != 2 {
		t.Fatalf("future forecasts = %d, want Lookahead() = 2", len(req.Future))
	}
	for i, step := range req.Future {
		if len(step) != len(req.Demands) {
			t.Errorf("future step %d has %d chunk demands, want %d", i, len(step), len(req.Demands))
		}
	}
}

// TestOraclePolicySeesTrueRates pins the oracle path: when the policy
// declares Oracle() and a true-rate source exists, the recorded arrival
// rates are the trace's, not the predictor's.
func TestOraclePolicySeesTrueRates(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	const trueRate = 0.123
	var reqs []provision.PlanRequest
	opts := resolvedOptions(transfer)
	opts.Policy = capturePolicy{oracle: true, lookahead: 1, reqs: &reqs}
	opts.TrueRates = func(int, float64, float64) float64 { return trueRate }
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, flatInputs(s, transfer, 0.9)) // predictor input says 0.9
	rec := (*rounds)[0]
	for ch, r := range rec.ArrivalRates {
		if r != trueRate {
			t.Errorf("channel %d planned on rate %v, want the oracle's %v", ch, r, trueRate)
		}
	}
	// Future forecasts come from the same oracle source.
	if len(reqs) != 1 || len(reqs[0].Future) != 1 {
		t.Fatalf("oracle lookahead not filled: %+v", reqs)
	}
}

// TestPolicyValidationSurfaces pins that invalid policy parameters fail
// controller construction.
func TestPolicyValidationSurfaces(t *testing.T) {
	s, cl, broker, transfer := buildStack(t)
	opts := resolvedOptions(transfer)
	opts.Policy = provision.Lookahead{K: -1}
	_, err := NewController(s, cl, broker, opts)
	if err == nil {
		t.Error("negative lookahead accepted")
	}
}
