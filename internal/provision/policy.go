package provision

import (
	"fmt"
	"math"

	"cloudmedia/internal/cloud"
)

// PlanRequest is everything the controller hands a provisioning policy at
// one interval boundary: the predicted per-chunk cloud demands, the
// negotiated cluster catalog, and the budgets. It is the exact planning
// surface core.Controller consumed before the Policy seam existed, so any
// policy sees precisely what the paper's greedy heuristic saw. The
// controller reuses the Demands, Future, VMClusters and NFSClusters
// buffers from round to round, so a planner must copy anything it keeps
// past Plan.
type PlanRequest struct {
	// Time is the simulated time of the round, seconds.
	Time float64
	// IntervalSeconds is the provisioning period T.
	IntervalSeconds float64
	// Demands is the predicted per-chunk cloud demand for the upcoming
	// interval (bytes/s), channel-major.
	Demands []ChunkDemand
	// Future holds demand forecasts for the intervals after the upcoming
	// one: Future[0] covers [Time+T, Time+2T), and so on. The controller
	// fills exactly Policy.Lookahead() entries; myopic policies see nil.
	Future [][]ChunkDemand
	// VMBandwidth is R, the per-VM upload bandwidth from the negotiated
	// catalog (bytes/s).
	VMBandwidth float64
	// ChunkBytes is the uniform chunk size rT₀ in bytes (storage planning).
	ChunkBytes float64
	// VMClusters and NFSClusters are the negotiated rental catalogs.
	VMClusters  []cloud.VMClusterSpec
	NFSClusters []cloud.NFSClusterSpec
	// VMBudgetPerHour and StorageBudgetPerHour are B_M and B_S in $/hour.
	VMBudgetPerHour      float64
	StorageBudgetPerHour float64
	// Pricing is the plan the ledger bills this run under. Risk-aware
	// policies read the spot tier from it (fraction at risk, interruption
	// probability) to fold expected interruption loss into their targets;
	// the zero value is pure on-demand and carries no risk.
	Pricing cloud.PricingPlan
}

// PlanResult is one policy decision: the plans to apply plus diagnostics.
type PlanResult struct {
	VMPlan      VMPlan
	StoragePlan StoragePlan
	// DemandScale < 1 records that the budget was infeasible and demand
	// was scaled down to fit (the paper's "increase your budget" signal).
	DemandScale float64
	// StorageErr is non-nil when storage planning failed this round; the
	// returned StoragePlan is then the previous (stale) plan, which stays
	// applied. The controller surfaces it on the IntervalRecord.
	StorageErr error
}

// Policy is the provisioning-policy seam: how predicted demand becomes a
// rental plan each interval. Implementations are stateless value specs
// (safe to share across scenarios, like core.Predictor); per-run mutable
// state lives in the Planner a controller obtains from NewPlanner, so two
// concurrent runs of one Scenario never share planner state.
type Policy interface {
	// Name is the policy's CLI/CSV spelling.
	Name() string
	// Lookahead is how many intervals of demand forecasts beyond the
	// upcoming one the policy wants in PlanRequest.Future; 0 for myopic
	// policies.
	Lookahead() int
	// Oracle reports whether the policy plans on the true (realized)
	// arrival intensity instead of the predictor's forecasts. The
	// controller honours it only when a true-rate source is configured.
	Oracle() bool
	// NewPlanner returns a fresh per-run planner.
	NewPlanner() Planner
}

// Planner carries one run's policy state and produces a plan per round.
type Planner interface {
	Plan(req PlanRequest) (PlanResult, error)
}

// FutureDemander is an optional Planner refinement: a planner whose need
// for future forecasts changes over the run (e.g. StaticPeak only needs
// the horizon for its first plan). When implemented and false, the
// controller skips computing PlanRequest.Future for the round — the
// forecasts are the expensive part of the control path.
type FutureDemander interface {
	NeedsFuture() bool
}

// ParsePolicy converts a command-line spelling into a Policy with its
// default parameters. It accepts "greedy", "lookahead", "oracle", and
// "staticpeak" (or "static-peak").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "greedy":
		return Greedy{}, nil
	case "lookahead":
		return Lookahead{}, nil
	case "oracle":
		return Oracle{}, nil
	case "staticpeak", "static-peak":
		return StaticPeak{}, nil
	case "lookahead-hedged", "hedged":
		return Lookahead{SpotHedge: true}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want greedy, lookahead, lookahead-hedged, oracle, or staticpeak)", s)
	}
}

// Greedy is the paper's policy (Sec. V-A/V-B): every interval, run the
// greedy VM heuristic on the predicted demand, shrinking demand when the
// budget is infeasible, and replan storage on the same demand whenever
// the catalog offers NFS clusters (a failed replan keeps the previous
// storage plan). It is the default, and reproduces the pre-seam
// controller bit for bit.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// Lookahead implements Policy.
func (Greedy) Lookahead() int { return 0 }

// Oracle implements Policy.
func (Greedy) Oracle() bool { return false }

// NewPlanner implements Policy.
func (Greedy) NewPlanner() Planner { return &greedyPlanner{} }

type greedyPlanner struct {
	storage storageState
	scratch planScratch
}

func (p *greedyPlanner) Plan(req PlanRequest) (PlanResult, error) {
	scale, err := p.scratch.planWithScaling(req.Demands, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
	if err != nil {
		return PlanResult{}, err
	}
	res := PlanResult{VMPlan: p.scratch.publishVMs(), DemandScale: scale}
	res.StoragePlan, res.StorageErr = p.storage.plan(&p.scratch, req)
	return res, nil
}

// Oracle plans exactly like Greedy but on the true arrival intensity of
// the workload trace rather than the predictor's forecasts — the
// perfect-prediction upper bound on the cost/quality frontier. Without a
// configured true-rate source it degrades to Greedy.
type Oracle struct{}

// Name implements Policy.
func (Oracle) Name() string { return "oracle" }

// Lookahead implements Policy.
func (Oracle) Lookahead() int { return 0 }

// Oracle implements Policy.
func (Oracle) Oracle() bool { return true }

// NewPlanner implements Policy.
func (Oracle) NewPlanner() Planner { return &greedyPlanner{} }

// Lookahead provisions for the per-chunk maximum over the upcoming
// interval and the next K predicted intervals, and tears capacity down
// only after the lower target has persisted for Hysteresis consecutive
// rounds — trading rental dollars for robustness to demand ramps and
// against rent/release thrash. With the paper's last-interval predictor
// the forecasts are flat, so the lookahead is only informative with a
// trend-aware predictor (EWMA, DiurnalMemory, …); the hysteresis applies
// regardless.
type Lookahead struct {
	// K is the number of future intervals considered; 0 means 3.
	K int
	// Hysteresis is the number of consecutive rounds a smaller plan must
	// persist before capacity is released; 0 means 2, 1 releases
	// immediately.
	Hysteresis int
	// SpotHedge folds the pricing plan's spot-interruption risk into the
	// plan: targets grow by 1/(1 − fraction_at_risk), where the fraction
	// at risk is the spot share times the per-interval interruption
	// probability (clamped so the multiplier never exceeds 1.5×). Under a
	// mass preemption the surviving capacity then still covers the
	// unhedged demand in expectation; on risk-free plans (no spot tier)
	// the multiplier is exactly 1 and the policy is plain Lookahead.
	SpotHedge bool
}

// Name implements Policy.
func (l Lookahead) Name() string {
	if l.SpotHedge {
		return "lookahead-hedged"
	}
	return "lookahead"
}

// Lookahead implements Policy.
func (l Lookahead) Lookahead() int {
	if l.K <= 0 {
		return 3
	}
	return l.K
}

// Oracle implements Policy.
func (Lookahead) Oracle() bool { return false }

// Validate checks the parameters.
func (l Lookahead) Validate() error {
	if l.K < 0 {
		return fmt.Errorf("provision: negative lookahead %d", l.K)
	}
	if l.Hysteresis < 0 {
		return fmt.Errorf("provision: negative hysteresis %d", l.Hysteresis)
	}
	return nil
}

// NewPlanner implements Policy.
func (l Lookahead) NewPlanner() Planner {
	h := l.Hysteresis
	if h == 0 {
		h = 2
	}
	return &lookaheadPlanner{hysteresis: h, hedge: l.SpotHedge}
}

type lookaheadPlanner struct {
	hysteresis int
	hedge      bool
	storage    storageState
	scratch    planScratch

	have      bool
	lastPlan  VMPlan
	lastVMs   float64
	lastScale float64
	below     int
}

// hedgeMultiplier prices the pricing plan's interruption risk into a
// capacity multiplier m ≥ 1: the fraction of provisioned capacity at risk
// per interval is spotFraction × P(interruption in T), and provisioning
// 1/(1−atRisk) keeps the expected surviving capacity at the unhedged
// target through a mass preemption. The at-risk fraction is clamped to
// 1/3 (m ≤ 1.5) so a pathological plan can never triple the bill.
func hedgeMultiplier(p cloud.PricingPlan, intervalSeconds float64) float64 {
	if p.SpotFraction <= 0 || p.SpotInterruption <= 0 {
		return 1
	}
	pInt := p.SpotInterruption * intervalSeconds / 3600
	if pInt > 1 {
		pInt = 1
	}
	atRisk := p.SpotFraction * pInt
	if atRisk > 1.0/3 {
		atRisk = 1.0 / 3
	}
	return 1 / (1 - atRisk)
}

func (p *lookaheadPlanner) Plan(req PlanRequest) (PlanResult, error) {
	if err := checkHorizon(req.Demands, req.Future); err != nil {
		return PlanResult{}, err
	}
	target := p.scratch.maxDemands(req.Demands, req.Future)
	if p.hedge {
		if m := hedgeMultiplier(req.Pricing, req.IntervalSeconds); m != 1 {
			for i := range target {
				target[i].Demand *= m
			}
		}
	}
	scale, err := p.scratch.planWithScaling(target, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
	if err != nil {
		return PlanResult{}, err
	}
	// Tear-down hysteresis: adopt larger plans immediately, smaller ones
	// only once the shrink has persisted. The decision reads the draft,
	// so a held round builds no plan. A held plan keeps its own
	// DemandScale so a budget-infeasibility signal is never masked.
	vms := p.scratch.draftTotalVMs()
	hold := false
	if p.have && vms < p.lastVMs {
		p.below++
		hold = p.below < p.hysteresis
		if !hold {
			p.below = 0
		}
	} else {
		p.below = 0
	}
	if !hold {
		p.have, p.lastPlan, p.lastVMs, p.lastScale = true, p.scratch.publishVMs(), vms, scale
	}

	res := PlanResult{VMPlan: p.lastPlan, DemandScale: p.lastScale}
	res.StoragePlan, res.StorageErr = p.storage.plan(&p.scratch, req)
	return res, nil
}

// StaticPeak is the fixed-provisioning baseline generalized: one rental,
// sized at t=0 for the peak demand over the next Intervals intervals of
// the true workload trace, held unchanged for the whole run. It is what a
// provider without elastic provisioning would buy.
type StaticPeak struct {
	// Intervals is the horizon whose peak is provisioned; 0 means 24 (a
	// day of hourly intervals).
	Intervals int
}

// Name implements Policy.
func (StaticPeak) Name() string { return "staticpeak" }

// Lookahead implements Policy.
func (s StaticPeak) Lookahead() int {
	if s.Intervals <= 0 {
		return 24
	}
	return s.Intervals
}

// Oracle implements Policy.
func (StaticPeak) Oracle() bool { return true }

// Validate checks the parameters.
func (s StaticPeak) Validate() error {
	if s.Intervals < 0 {
		return fmt.Errorf("provision: negative static-peak horizon %d", s.Intervals)
	}
	return nil
}

// NewPlanner implements Policy.
func (StaticPeak) NewPlanner() Planner { return &staticPeakPlanner{} }

type staticPeakPlanner struct {
	planned bool
	first   PlanResult
}

// NeedsFuture implements FutureDemander: the horizon matters only until
// the one-shot rental is sized.
func (p *staticPeakPlanner) NeedsFuture() bool { return !p.planned }

func (p *staticPeakPlanner) Plan(req PlanRequest) (PlanResult, error) {
	if p.planned {
		// The one-shot rental holds; replay it (without re-reporting the
		// first round's storage error, if any).
		res := p.first
		res.StorageErr = nil
		return res, nil
	}
	if err := checkHorizon(req.Demands, req.Future); err != nil {
		return PlanResult{}, err
	}
	var scratch planScratch
	target := scratch.maxDemands(req.Demands, req.Future)
	scale, err := scratch.planWithScaling(target, req.VMBandwidth, req.VMClusters, req.VMBudgetPerHour)
	if err != nil {
		return PlanResult{}, err
	}
	res := PlanResult{VMPlan: scratch.publishVMs(), DemandScale: scale}
	var storage storageState
	res.StoragePlan, res.StorageErr = storage.plan(&scratch, req)
	p.planned, p.first = true, res
	return res, nil
}

// maxDemands returns the per-chunk maximum of the current demands and
// every future forecast, in the current demands' order. Chunks that only
// appear in a forecast are ignored: the chunk universe is fixed per run.
// Each step is merged by walking both lists in key order; a key repeated
// in current takes the maximum on its last copy only. The result is
// scratch, valid until the next call.
func (s *planScratch) maxDemands(current []ChunkDemand, future [][]ChunkDemand) []ChunkDemand {
	out := append(s.target[:0], current...)
	s.target = out
	s.order = keyOrder(s.order, out)
	order := s.order
	for _, step := range future {
		s.step = keyOrder(s.step, step)
		k := 0
		for _, i := range s.step {
			d := step[i]
			for k < len(order) && keyLess(out[order[k]], d) {
				k++
			}
			for k+1 < len(order) && sameKey(out[order[k+1]], d) {
				k++
			}
			if k == len(order) {
				break
			}
			if o := &out[order[k]]; sameKey(*o, d) && d.Demand > o.Demand {
				o.Demand = d.Demand
			}
		}
	}
	return out
}

// storageState is the storage side shared by the planners: the last
// storage plan, which a failed replan keeps in force.
type storageState struct {
	lastPlan StoragePlan
}

// plan replans storage whenever the catalog is non-empty; otherwise it
// returns the previous plan. A planning failure keeps (and returns) the
// stale plan together with the error, so the caller can surface the
// infeasibility instead of silently carrying old capacity.
func (s *storageState) plan(scratch *planScratch, req PlanRequest) (StoragePlan, error) {
	if len(req.NFSClusters) == 0 {
		return s.lastPlan, nil
	}
	sp, err := scratch.planStorage(req.Demands, req.ChunkBytes, req.NFSClusters, req.StorageBudgetPerHour)
	if err != nil {
		return s.lastPlan, err
	}
	s.lastPlan = sp
	return sp, nil
}

// planWithScaling drafts the VM heuristic, shrinking demand until the
// draft fits the budget and cluster capacity; publishVMs then builds the
// plan. Infeasible attempts build nothing. The first retry jumps straight
// to an upper bound on the feasible scale (cost is at least totalVMs ×
// the cheapest price, and VMs are bounded by total cluster capacity),
// then backs off geometrically. Returns the final scale.
func (s *planScratch) planWithScaling(flat []ChunkDemand, vmBandwidth float64, specs []cloud.VMClusterSpec, budget float64) (float64, error) {
	fits, err := s.draftVMs(flat, vmBandwidth, specs, budget)
	if err != nil || fits {
		return 1, err
	}

	var totalNeed float64
	for _, d := range flat {
		totalNeed += d.Demand / vmBandwidth
	}
	if totalNeed <= 0 {
		return 1, s.shortfall()
	}
	var capTotal float64
	minPrice := math.Inf(1)
	for _, spec := range specs {
		capTotal += float64(spec.MaxVMs)
		if spec.PricePerHour < minPrice {
			minPrice = spec.PricePerHour
		}
	}
	scale := 1.0
	if bound := capTotal / totalNeed; bound < scale {
		scale = bound
	}
	if minPrice > 0 {
		if bound := budget / (totalNeed * minPrice); bound < scale {
			scale = bound
		}
	}
	scale *= 0.98

	for attempt := 0; attempt < 30 && scale > 0; attempt++ {
		scaled := s.scaled[:0]
		for _, d := range flat {
			scaled = append(scaled, ChunkDemand{Channel: d.Channel, Chunk: d.Chunk, Demand: d.Demand * scale})
		}
		s.scaled = scaled
		fits, err := s.draftVMs(scaled, vmBandwidth, specs, budget)
		if err != nil || fits {
			return scale, err
		}
		scale *= 0.9
	}
	return scale, fmt.Errorf("%w: demand unservable even at %.2f%% scale", ErrInfeasible, scale*100)
}
