package core

import (
	"math"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/workload"
)

// testSystem builds a small but complete CloudMedia stack: simulator,
// cloud, controller. The scenario pieces come from the shared
// internal/testutil builders.
func testSystem(t *testing.T, mode sim.Mode, opts ...cloud.Option) (*sim.Simulator, *cloud.Cloud, *Controller) {
	t.Helper()
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	s, cl := testutil.Stack(t, sim.Config{
		Mode:     mode,
		Channel:  testutil.ChannelConfig(5, 60),
		Workload: testutil.FlatWorkload(3, 0.3, 300),
		Transfer: transfer,
		Seed:     7,
	}, opts...)
	ctl, err := NewController(s, cl, resolvedOptions(transfer))
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return s, cl, ctl
}

// resolvedOptions returns the options stack.Build passes for a default
// scenario, at 10-minute rounds so the tests stay quick. NewController
// takes no zero-means-default value: Build resolves them.
func resolvedOptions(transfer queueing.TransferMatrix) Options {
	return Options{
		IntervalSeconds:      600,
		VMBudgetPerHour:      100,
		StorageBudgetPerHour: 1,
		FallbackTransfer:     transfer,
		Predictor:            LastInterval{},
		Policy:               provision.Greedy{},
	}
}

// recordRounds collects every round ctl finishes from now on through its
// OnInterval hook, the only way a round leaves the controller.
func recordRounds(ctl *Controller) *[]IntervalRecord {
	recs := new([]IntervalRecord)
	ctl.opts.OnInterval = func(rec IntervalRecord) { *recs = append(*recs, rec) }
	return recs
}

// bootstrapInputs builds analytic t=0 inputs from the workload parameters.
func bootstrapInputs(t *testing.T, s *sim.Simulator, wl *workload.Params, transfer queueing.TransferMatrix) []ChannelInput {
	t.Helper()
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		rate, err := wl.ChannelRate(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		inputs[c] = ChannelInput{
			ArrivalRate: rate,
			Transfer:    transfer,
			MeanUplink:  wl.PeerUplink.Mean(),
		}
	}
	return inputs
}

func TestNewControllerValidation(t *testing.T) {
	s, cl, _ := testSystem(t, sim.ClientServer)
	opts := resolvedOptions(testutil.SequentialWithJumps(t, 5, 0.9, 0.2))
	if _, err := NewController(nil, cl, opts); err == nil {
		t.Error("nil sim: want error")
	}
	if _, err := NewController(s, nil, opts); err == nil {
		t.Error("nil cloud: want error")
	}
	bad := opts
	bad.FallbackTransfer = queueing.NewTransferMatrix(2)
	if _, err := NewController(s, cl, bad); err == nil {
		t.Error("fallback size mismatch: want error")
	}
	// The zero-means-default values resolve in stack.Build; one that
	// arrives unresolved is rejected, not filled in.
	for name, mutate := range map[string]func(*Options){
		"zero interval":       func(o *Options) { o.IntervalSeconds = 0 },
		"zero VM budget":      func(o *Options) { o.VMBudgetPerHour = 0 },
		"zero storage budget": func(o *Options) { o.StorageBudgetPerHour = 0 },
		"nil predictor":       func(o *Options) { o.Predictor = nil },
		"nil policy":          func(o *Options) { o.Policy = nil },
	} {
		o := opts
		mutate(&o)
		if _, err := NewController(s, cl, o); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := NewController(s, cl, opts); err != nil {
		t.Errorf("resolved options rejected: %v", err)
	}
}

func TestControllerEndToEndClientServer(t *testing.T) {
	s, cl, ctl := testSystem(t, sim.ClientServer)
	wl := testutil.FlatWorkload(3, 0.3, 300)
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)

	rounds := recordRounds(ctl)
	ctl.Provision(0, bootstrapInputs(t, s, &wl, transfer))
	if err := ctl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.RunUntil(3 * 600)

	recs := *rounds
	if len(recs) < 3 {
		t.Fatalf("records = %d, want ≥3 (bootstrap + 2 rounds)", len(recs))
	}
	// Demand must be positive once traffic flows.
	if recs[len(recs)-1].TotalDemand <= 0 {
		t.Error("no demand derived from live statistics")
	}
	// VMs must actually have been rented and billed.
	vmCost, _ := cl.Costs(s.Now())
	if vmCost <= 0 {
		t.Error("no VM cost accrued")
	}
	// Provisioned capacity must reach the simulator.
	if s.TotalCloudCapacity() <= 0 {
		t.Error("no capacity applied to the simulator")
	}
	// And the users should be streaming smoothly.
	q := s.SampleQuality()
	if q.Overall < 0.8 {
		t.Errorf("quality %v with hourly provisioning, want ≥0.8", q.Overall)
	}
}

func TestControllerP2PCheaperThanClientServer(t *testing.T) {
	// Needs a real crowd: peer uplinks (~0.3 Mbps each) only displace
	// 10 Mbps VMs when many viewers hold chunks.
	run := func(mode sim.Mode) float64 {
		transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
		wl := testutil.FlatWorkload(3, 2.5, 300) // ≈750 concurrent users
		s, cl := testutil.Stack(t, sim.Config{
			Mode: mode, Channel: testutil.ChannelConfig(5, 60), Workload: wl, Transfer: transfer, Seed: 7,
		})
		ctl, err := NewController(s, cl, resolvedOptions(transfer))
		if err != nil {
			t.Fatal(err)
		}
		ctl.Provision(0, bootstrapInputs(t, s, &wl, transfer))
		if err := ctl.Start(); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(3 * 600)
		vmCost, _ := cl.Costs(s.Now())
		return vmCost
	}
	cs := run(sim.ClientServer)
	p2p := run(sim.P2P)
	if p2p >= cs {
		t.Errorf("P2P VM cost %v not below client-server %v (the paper's headline)", p2p, cs)
	}
}

func TestControllerRecordsDemandScale(t *testing.T) {
	s, _, _ := testSystem(t, sim.ClientServer)
	// Rebuild a controller with a tiny VM budget to force scaling.
	cl2, err := cloud.New(cloud.DefaultVMClusters(), cloud.DefaultNFSClusters())
	if err != nil {
		t.Fatal(err)
	}
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	opts := resolvedOptions(transfer)
	opts.VMBudgetPerHour = 0.5 // ≈1 VM: far below demand
	ctl, err := NewController(s, cl2, opts)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		inputs[c] = ChannelInput{ArrivalRate: 0.2, Transfer: transfer}
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, inputs)
	recs := *rounds
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].DemandScale >= 1 {
		t.Errorf("DemandScale = %v, want < 1 under a starvation budget", recs[0].DemandScale)
	}
	if recs[0].VMPlan.CostPerHour > 0.5+1e-9 {
		t.Errorf("plan cost %v exceeds budget", recs[0].VMPlan.CostPerHour)
	}
}

func TestControllerZeroTrafficKeepsZeroDemand(t *testing.T) {
	s, cl, ctl := testSystem(t, sim.ClientServer)
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		inputs[c] = ChannelInput{ArrivalRate: 0, Transfer: transfer}
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, inputs)
	recs := *rounds
	if recs[0].TotalDemand != 0 {
		t.Errorf("TotalDemand = %v, want 0", recs[0].TotalDemand)
	}
	vmCost, _ := cl.Costs(3600)
	if vmCost != 0 {
		t.Errorf("vm cost %v for an idle system", vmCost)
	}
}

func TestControllerHonorsBootLatencyOnIncrease(t *testing.T) {
	s, cl, ctl := testSystem(t, sim.ClientServer)
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		inputs[c] = ChannelInput{ArrivalRate: 0.2, Transfer: transfer}
	}
	ctl.Provision(0, inputs)
	// Immediately after provisioning, capacity has not landed (VMs boot for
	// ~25 s); after the boot latency it has.
	if got := s.TotalCloudCapacity(); got != 0 {
		t.Errorf("capacity %v before boot completes, want 0", got)
	}
	s.RunUntil(cl.BootLatency() + 1)
	if got := s.TotalCloudCapacity(); got <= 0 {
		t.Error("capacity missing after boot latency")
	}
}

func TestControllerRecoversFromVMFailures(t *testing.T) {
	s, cl, ctl := testSystem(t, sim.ClientServer, cloud.WithPricing(cloud.SpotPricing()))
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	inputs := make([]ChannelInput, s.Channels())
	for c := range inputs {
		inputs[c] = ChannelInput{ArrivalRate: 0.2, Transfer: transfer}
	}
	ctl.Provision(0, inputs)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(300)
	before, err := cl.AllocatedVMs("standard")
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Skip("no standard VMs allocated in this scenario")
	}
	// Preempt every spot VM mid-interval; the next round's absolute SLA
	// targets must restore the fleet.
	killed, _, err := cl.PreemptSpot(s.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	failed, _ := cl.AllocatedVMs("standard")
	if killed == 0 || failed >= before {
		t.Fatalf("preemption did not shrink the allocation: %d → %d VMs", before, failed)
	}
	s.RunUntil(2 * 600) // past the next provisioning round
	after, err := cl.AllocatedVMs("standard")
	if err != nil {
		t.Fatal(err)
	}
	if after <= failed {
		t.Errorf("controller did not restore the preempted VMs on the next round: %d after preemption, %d after the round", failed, after)
	}
}

// TestCapacityHooksRejectOutOfRange: the fault hooks take factors in
// [0,1]; NaN must be rejected like any other out-of-range value rather
// than slip past a `x < 0 || x > 1` check into the serving plane.
func TestCapacityHooksRejectOutOfRange(t *testing.T) {
	_, _, ctl := testSystem(t, sim.ClientServer)
	for _, f := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if err := ctl.SetCapacityFactor(0, f); err == nil {
			t.Errorf("SetCapacityFactor(%v) accepted", f)
		}
		if err := ctl.ScaleCapacity(0, f); err == nil {
			t.Errorf("ScaleCapacity(%v) accepted", f)
		}
	}
	if got := ctl.factor; got != 1 {
		t.Errorf("rejected factors moved the capacity factor to %v", got)
	}
	for _, f := range []float64{0, 0.5, 1} {
		if err := ctl.SetCapacityFactor(0, f); err != nil {
			t.Errorf("SetCapacityFactor(%v): %v", f, err)
		}
		if err := ctl.ScaleCapacity(0, f); err != nil {
			t.Errorf("ScaleCapacity(%v): %v", f, err)
		}
	}
}
