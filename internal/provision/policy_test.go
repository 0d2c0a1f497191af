package provision

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
)

// demandGrid builds channels×chunks uniform demands.
func demandGrid(channels, chunks int, demand float64) []ChunkDemand {
	out := make([]ChunkDemand, 0, channels*chunks)
	for c := 0; c < channels; c++ {
		for i := 0; i < chunks; i++ {
			out = append(out, ChunkDemand{Channel: c, Chunk: i, Demand: demand})
		}
	}
	return out
}

func planRequest(demands []ChunkDemand) PlanRequest {
	return PlanRequest{
		IntervalSeconds:      3600,
		Demands:              demands,
		VMBandwidth:          cloud.DefaultVMBandwidth,
		ChunkBytes:           50e3 * 75,
		VMClusters:           cloud.DefaultVMClusters(),
		NFSClusters:          cloud.DefaultNFSClusters(),
		VMBudgetPerHour:      100,
		StorageBudgetPerHour: 1,
	}
}

// planScaled runs planWithScaling on a fresh scratch and publishes the
// plan it drafted.
func planScaled(demands []ChunkDemand, vmBandwidth float64, specs []cloud.VMClusterSpec, budget float64) (VMPlan, float64, error) {
	var s planScratch
	scale, err := s.planWithScaling(demands, vmBandwidth, specs, budget)
	if err != nil {
		return VMPlan{}, scale, err
	}
	return s.publishVMs(), scale, nil
}

// TestPlanWithScalingFeasible: ample budget needs no scaling.
func TestPlanWithScalingFeasible(t *testing.T) {
	demands := demandGrid(2, 4, 2e6)
	plan, scale, err := planScaled(demands, cloud.DefaultVMBandwidth, cloud.DefaultVMClusters(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		t.Errorf("scale = %v, want 1 for a feasible budget", scale)
	}
	if plan.TotalVMs() <= 0 {
		t.Error("no VMs planned")
	}
}

// TestPlanWithScalingScalesDownToBudget pins the satellite path: a budget
// far below the demand forces the scale search, which must converge on a
// plan inside the budget with scale < 1.
func TestPlanWithScalingScalesDownToBudget(t *testing.T) {
	demands := demandGrid(3, 5, 5e6) // ≈60 VMs of demand
	const budget = 2.0               // ≈4 standard VMs
	plan, scale, err := planScaled(demands, cloud.DefaultVMBandwidth, cloud.DefaultVMClusters(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if scale >= 1 {
		t.Errorf("scale = %v, want < 1 under a starvation budget", scale)
	}
	if scale <= 0 {
		t.Errorf("scale = %v, want > 0", scale)
	}
	if plan.CostPerHour > budget+1e-9 {
		t.Errorf("plan cost %v exceeds budget %v", plan.CostPerHour, budget)
	}
	if plan.TotalVMs() <= 0 {
		t.Error("scaled plan rents nothing")
	}
}

// TestPlanWithScalingInfeasibleWrapsErrInfeasible pins the exhaustion
// path: when even the scale search cannot fit (zero budget), the error
// wraps ErrInfeasible so errors.Is works across the seam.
func TestPlanWithScalingInfeasibleWrapsErrInfeasible(t *testing.T) {
	demands := demandGrid(2, 4, 5e6)
	_, scale, err := planScaled(demands, cloud.DefaultVMBandwidth, cloud.DefaultVMClusters(), 0)
	if err == nil {
		t.Fatal("zero budget produced a plan")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "unservable") {
		t.Errorf("error %q lacks the exhaustion message", err)
	}
	if scale != 0 {
		t.Errorf("final scale = %v, want 0 after the bound collapses", scale)
	}
}

// TestPlanWithScalingPassesThroughOtherErrors: non-infeasibility errors
// (here a negative budget) must not trigger the scale search.
func TestPlanWithScalingPassesThroughOtherErrors(t *testing.T) {
	demands := demandGrid(1, 2, 1e6)
	_, _, err := planScaled(demands, cloud.DefaultVMBandwidth, cloud.DefaultVMClusters(), -5)
	if err == nil {
		t.Fatal("negative budget produced a plan")
	}
	if errors.Is(err, ErrInfeasible) {
		t.Errorf("validation error %v wrongly wrapped as infeasible", err)
	}
}

// policyNames lists every ParsePolicy spelling.
var policyNames = []string{"greedy", "lookahead", "lookahead-hedged", "oracle", "staticpeak"}

func TestParsePolicy(t *testing.T) {
	for _, name := range policyNames {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestGreedyMatchesRawHeuristic: the Greedy planner is exactly
// planWithScaling + threshold-gated storage.
func TestGreedyMatchesRawHeuristic(t *testing.T) {
	req := planRequest(demandGrid(2, 4, 2e6))
	res, err := Greedy{}.NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	wantVM, wantScale, err := planScaled(req.Demands, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandScale != wantScale || res.VMPlan.TotalVMs() != wantVM.TotalVMs() || res.VMPlan.CostPerHour != wantVM.CostPerHour {
		t.Errorf("greedy plan diverges from the raw heuristic: %+v vs %+v", res.VMPlan, wantVM)
	}
	if len(res.StoragePlan.Placements) != len(req.Demands) {
		t.Errorf("storage placements = %d, want %d", len(res.StoragePlan.Placements), len(req.Demands))
	}
}

// TestGreedyStorageFailureKeepsStalePlan pins the storage diagnostics: a
// round whose storage replan fails returns the previous plan plus the
// error.
func TestGreedyStorageFailureKeepsStalePlan(t *testing.T) {
	planner := Greedy{}.NewPlanner()
	req := planRequest(demandGrid(2, 4, 2e6))
	first, err := planner.Plan(req)
	if err != nil || first.StorageErr != nil {
		t.Fatalf("first round: %v / %v", err, first.StorageErr)
	}
	// Second round: same demand, but the storage budget collapses.
	req2 := req
	req2.StorageBudgetPerHour = 1e-12
	second, err := planner.Plan(req2)
	if err != nil {
		t.Fatal(err)
	}
	if second.StorageErr == nil {
		t.Fatal("storage failure not reported")
	}
	if !errors.Is(second.StorageErr, ErrInfeasible) {
		t.Errorf("StorageErr %v does not wrap ErrInfeasible", second.StorageErr)
	}
	if second.StoragePlan.Utility != first.StoragePlan.Utility {
		t.Error("failed round did not keep the stale storage plan")
	}
}

// TestLookaheadPlansForForecastPeak: with a future spike in the
// forecasts, the lookahead plan covers the spike now.
func TestLookaheadPlansForForecastPeak(t *testing.T) {
	req := planRequest(demandGrid(2, 4, 1e6))
	spike := demandGrid(2, 4, 3e6)
	req.Future = [][]ChunkDemand{demandGrid(2, 4, 1e6), spike}

	flat, err := Lookahead{K: 2, Hysteresis: 1}.NewPlanner().Plan(planRequest(demandGrid(2, 4, 1e6)))
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := Lookahead{K: 2, Hysteresis: 1}.NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if ahead.VMPlan.TotalVMs() <= flat.VMPlan.TotalVMs() {
		t.Errorf("lookahead ignored the forecast spike: %v VMs vs %v without it",
			ahead.VMPlan.TotalVMs(), flat.VMPlan.TotalVMs())
	}
}

// TestLookaheadHysteresisDelaysTeardown: after a demand drop, the plan
// holds for Hysteresis−1 rounds and releases on the Hysteresis-th.
func TestLookaheadHysteresisDelaysTeardown(t *testing.T) {
	planner := Lookahead{K: 1, Hysteresis: 2}.NewPlanner()
	high := planRequest(demandGrid(2, 4, 3e6))
	low := planRequest(demandGrid(2, 4, 1e6))

	first, err := planner.Plan(high)
	if err != nil {
		t.Fatal(err)
	}
	held, err := planner.Plan(low)
	if err != nil {
		t.Fatal(err)
	}
	if held.VMPlan.TotalVMs() != first.VMPlan.TotalVMs() {
		t.Errorf("teardown not delayed: %v VMs after one low round, want %v held",
			held.VMPlan.TotalVMs(), first.VMPlan.TotalVMs())
	}
	released, err := planner.Plan(low)
	if err != nil {
		t.Fatal(err)
	}
	if released.VMPlan.TotalVMs() >= first.VMPlan.TotalVMs() {
		t.Errorf("teardown never happened: still %v VMs after two low rounds", released.VMPlan.TotalVMs())
	}
}

// TestLookaheadHoldKeepsDemandScale: a held (hysteresis) round must
// report the held plan's DemandScale, not 1 — the budget-infeasibility
// signal may not be masked by the hold.
func TestLookaheadHoldKeepsDemandScale(t *testing.T) {
	planner := Lookahead{K: 1, Hysteresis: 3}.NewPlanner()
	high := planRequest(demandGrid(3, 5, 5e6))
	high.VMBudgetPerHour = 2 // forces scale < 1
	low := planRequest(demandGrid(3, 5, 1e5))
	low.VMBudgetPerHour = 2

	first, err := planner.Plan(high)
	if err != nil {
		t.Fatal(err)
	}
	if first.DemandScale >= 1 {
		t.Fatalf("setup: high round not scaled (%v)", first.DemandScale)
	}
	held, err := planner.Plan(low)
	if err != nil {
		t.Fatal(err)
	}
	if held.VMPlan.TotalVMs() != first.VMPlan.TotalVMs() {
		t.Fatalf("setup: plan not held")
	}
	if held.DemandScale != first.DemandScale {
		t.Errorf("held round reports scale %v, want the held plan's %v", held.DemandScale, first.DemandScale)
	}
}

// TestStaticPeakStopsNeedingForecasts: after the one-shot plan, the
// planner tells the controller to skip the expensive future forecasts.
func TestStaticPeakStopsNeedingForecasts(t *testing.T) {
	planner := StaticPeak{Intervals: 3}.NewPlanner()
	fd, ok := planner.(FutureDemander)
	if !ok {
		t.Fatal("static-peak planner does not implement FutureDemander")
	}
	if !fd.NeedsFuture() {
		t.Error("first round must request the horizon")
	}
	if _, err := planner.Plan(planRequest(demandGrid(2, 4, 1e6))); err != nil {
		t.Fatal(err)
	}
	if fd.NeedsFuture() {
		t.Error("planner still requests forecasts after the one-shot plan")
	}
}

// TestStaticPeakHoldsFirstPlan: the one-shot rental never changes after
// the first round, whatever demand does.
func TestStaticPeakHoldsFirstPlan(t *testing.T) {
	planner := StaticPeak{Intervals: 2}.NewPlanner()
	req := planRequest(demandGrid(2, 4, 1e6))
	req.Future = [][]ChunkDemand{demandGrid(2, 4, 2e6), demandGrid(2, 4, 4e6)}
	first, err := planner.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	// The peak (4e6/chunk) must be what was rented, not the current 1e6.
	myopic, _, err := planScaled(req.Demands, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
	if err != nil {
		t.Fatal(err)
	}
	if first.VMPlan.TotalVMs() <= myopic.TotalVMs() {
		t.Errorf("static peak rented %v VMs, not above the myopic %v", first.VMPlan.TotalVMs(), myopic.TotalVMs())
	}
	later, err := planner.Plan(planRequest(demandGrid(2, 4, 9e6)))
	if err != nil {
		t.Fatal(err)
	}
	if later.VMPlan.TotalVMs() != first.VMPlan.TotalVMs() {
		t.Errorf("static plan moved: %v → %v VMs", first.VMPlan.TotalVMs(), later.VMPlan.TotalVMs())
	}
}

func TestMaxDemandsIgnoresUnknownChunks(t *testing.T) {
	current := demandGrid(1, 2, 1)
	future := [][]ChunkDemand{{
		{Channel: 0, Chunk: 0, Demand: 5},
		{Channel: 7, Chunk: 9, Demand: 99}, // not in the chunk universe
	}}
	got := new(planScratch).maxDemands(current, future)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Demand != 5 || got[1].Demand != 1 {
		t.Errorf("maxDemands = %+v", got)
	}
}

// BenchmarkPolicyPlan measures plans/s for each policy on a paper-sized
// chunk universe (20 channels × 20 chunks), the per-interval control-path
// cost. The sawtooth case runs the hedged lookahead on a demand that
// holds the plan in a third of its rounds, as the minute-interval control
// day does.
func BenchmarkPolicyPlan(b *testing.B) {
	for _, policy := range []Policy{Greedy{}, Lookahead{}, Oracle{}, StaticPeak{}} {
		b.Run(policy.Name(), func(b *testing.B) {
			req := planRequest(demandGrid(20, 20, 1e6))
			if k := policy.Lookahead(); k > 0 {
				req.Future = make([][]ChunkDemand, k)
				for i := range req.Future {
					req.Future[i] = demandGrid(20, 20, 1e6*float64(i+2)/2)
				}
			}
			planner := policy.NewPlanner()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := planner.Plan(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
		})
	}
	b.Run("lookahead-hedged-sawtooth", func(b *testing.B) {
		reqs := sawtoothRequests()
		planner := Lookahead{SpotHedge: true}.NewPlanner()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := planner.Plan(reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})
}

// sawtoothRequests is one tooth of a falling demand, levels 3, 2 and 1 ×
// 1e6/3 bytes/s on 20 channels × 20 chunks, Zipf across channels and
// falling along each channel's chunks, priced on the spot plan, with
// forecasts below the current demand. Repeated under the default
// hysteresis, the middle round of each tooth holds the plan: a third of
// the rounds, about the share the minute-interval control day holds.
func sawtoothRequests() []PlanRequest {
	reqs := make([]PlanRequest, 3)
	for r := range reqs {
		level := 1e6 * float64(3-r) / 3
		current := demandGrid(20, 20, 0)
		for i := range current {
			d := &current[i]
			d.Demand = level * math.Pow(float64(d.Channel+1), -0.8) * (1 - 0.03*float64(d.Chunk))
		}
		future := make([][]ChunkDemand, 3)
		for k := range future {
			future[k] = append([]ChunkDemand(nil), current...)
			for i := range future[k] {
				future[k][i].Demand *= 0.9
			}
		}
		reqs[r] = planRequest(current)
		reqs[r].Future = future
		reqs[r].Pricing = cloud.SpotPricing()
	}
	return reqs
}

// TestHedgeMultiplier pins the spot-risk discount: m = 1/(1 − atRisk)
// with atRisk = spotFraction × P(interruption in interval), clamped so
// m never exceeds 1.5.
func TestHedgeMultiplier(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     cloud.PricingPlan
		interval float64
		want     float64
	}{
		{"no spot tier", cloud.OnDemandPricing(), 3600, 1},
		{"spot without interruption risk", cloud.PricingPlan{SpotFraction: 0.7, SpotRate: 0.3}, 3600, 1},
		{"shipped spot plan hourly", cloud.SpotPricing(), 3600, 1 / (1 - 0.7*0.25)},
		{"shorter interval shrinks the risk", cloud.SpotPricing(), 600, 1 / (1 - 0.7*0.25/6)},
		{"pathological plan clamps at 1.5", cloud.PricingPlan{SpotFraction: 1, SpotInterruption: 1}, 3600, 1.5},
	} {
		if got := hedgeMultiplier(tc.plan, tc.interval); !approxEq(got, tc.want, 1e-12) {
			t.Errorf("%s: m = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func approxEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestLookaheadSpotHedgeRentsAhead: under a risky spot plan the hedged
// lookahead provisions strictly more than the plain one for the same
// demand, and exactly the same when the plan carries no spot risk.
func TestLookaheadSpotHedgeRentsAhead(t *testing.T) {
	req := planRequest(demandGrid(2, 4, 2e6))
	req.Pricing = cloud.SpotPricing()

	plain, err := Lookahead{}.NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	hedged, err := Lookahead{SpotHedge: true}.NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.VMPlan.TotalVMs() <= plain.VMPlan.TotalVMs() {
		t.Errorf("hedged plan %v VMs not above plain %v under spot risk",
			hedged.VMPlan.TotalVMs(), plain.VMPlan.TotalVMs())
	}

	// Without spot risk the hedge is inert: identical plans.
	safe := planRequest(demandGrid(2, 4, 2e6))
	plainSafe, err := Lookahead{}.NewPlanner().Plan(safe)
	if err != nil {
		t.Fatal(err)
	}
	hedgedSafe, err := Lookahead{SpotHedge: true}.NewPlanner().Plan(safe)
	if err != nil {
		t.Fatal(err)
	}
	if hedgedSafe.VMPlan.TotalVMs() != plainSafe.VMPlan.TotalVMs() {
		t.Errorf("hedge moved the plan without spot risk: %v vs %v VMs",
			hedgedSafe.VMPlan.TotalVMs(), plainSafe.VMPlan.TotalVMs())
	}
}

// TestPlannersRejectNonFiniteDemand: a NaN or infinite Δ used to slip
// past validation (NaN < 0 is false) and come back as a plan with NaN VMs
// and cost and no error. Every entry point must now refuse it.
func TestPlannersRejectNonFiniteDemand(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		demands := demandGrid(2, 4, 1e6)
		demands[5].Demand = bad
		req := planRequest(demands)
		if _, err := PlanVMs(demands, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour); err == nil {
			t.Errorf("PlanVMs accepted demand %v", bad)
		}
		if _, err := PlanStorage(demands, req.ChunkBytes, req.NFSClusters, req.StorageBudgetPerHour); err == nil {
			t.Errorf("PlanStorage accepted demand %v", bad)
		}
		for _, name := range policyNames {
			policy, err := ParsePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			req := planRequest(demands)
			if k := policy.Lookahead(); k > 0 {
				for step := 0; step < k; step++ {
					req.Future = append(req.Future, demandGrid(2, 4, 1e6))
				}
			}
			if res, err := policy.NewPlanner().Plan(req); err == nil {
				t.Errorf("%s planner accepted demand %v: %v VMs at $%v/h",
					name, bad, res.VMPlan.TotalVMs(), res.VMPlan.CostPerHour)
			}
			if len(req.Future) == 0 {
				continue
			}
			// A bad forecast alone must not be dropped by the max either.
			req.Demands = demandGrid(2, 4, 1e6)
			req.Future[0] = demands
			if _, err := policy.NewPlanner().Plan(req); err == nil {
				t.Errorf("%s planner accepted forecast demand %v", name, bad)
			}
		}
	}
}
