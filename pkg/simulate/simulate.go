// Package simulate runs the CloudMedia discrete-event system — workload
// generator, streaming simulator, measurement tracker, dynamic
// provisioning controller, and IaaS cloud — behind a context-aware API.
//
// Build a Scenario (Default gives the reduced-scale counterpart of the
// paper's setup), then call Run with a context. Long runs stream their
// provisioning rounds through OnInterval or Stream instead of accumulating
// them, so memory stays bounded by one interval:
//
//	sc := simulate.Default(simulate.CloudAssisted, 2)
//	sc.Hours = 12
//	report, err := sc.Run(ctx, simulate.OnInterval(func(rec simulate.IntervalRecord) {
//		log.Printf("t=%.0fh reserved demand %.1f Mbps", rec.Time/3600, rec.TotalDemand*8/1e6)
//	}))
//
// Everything here wraps the internal engines; the analytic one-shot
// pipeline lives in the root cloudmedia package and pkg/plan.
package simulate

import (
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/workload"
)

// Mode selects the VoD architecture under test (Sec. III-B):
// ClientServer serves every chunk from dynamically rented cloud capacity;
// P2P runs the mesh-pull overlay with only the bootstrap (t=0) rental
// held statically for the whole run; CloudAssisted is the paper's
// CloudMedia, the overlay plus per-interval dynamic provisioning.
type Mode = modes.Mode

const (
	ClientServer  = modes.ClientServer
	P2P           = modes.P2P
	CloudAssisted = modes.CloudAssisted
)

// ParseMode converts a command-line spelling into a Mode. It accepts
// "client-server" (or "cs"), "p2p", and "cloud-assisted" (or
// "cloudmedia").
func ParseMode(s string) (Mode, error) {
	m, err := modes.Parse(s)
	if err != nil {
		return 0, fmt.Errorf("simulate: %w", err)
	}
	return m, nil
}

// Fidelity selects the simulation engine behind a scenario: the
// per-viewer discrete-event engine (FidelityEvent, the default and the
// accuracy reference) or the aggregate fluid-cohort engine
// (FidelityFluid, O(channels × chunks) state for million-viewer runs).
// See DESIGN.md "Engine fidelities" for the trade-offs.
type Fidelity = modes.Fidelity

const (
	FidelityEvent = modes.FidelityEvent
	FidelityFluid = modes.FidelityFluid
)

// ParseFidelity converts a command-line spelling into a Fidelity. It
// accepts "event" (or "discrete") and "fluid" (or "cohort").
func ParseFidelity(s string) (Fidelity, error) {
	f, err := modes.ParseFidelity(s)
	if err != nil {
		return 0, fmt.Errorf("simulate: %w", err)
	}
	return f, nil
}

// ClockMode selects how a live serving run (pkg/serve) paces simulated
// time against real time: ClockReal against the wall clock under a
// time-compression factor, ClockSimulated as fast as the engines can
// step (the batch behaviour, and the deterministic choice for tests).
// The zero value lets the consumer pick its default — the serve daemon
// defaults to real, tests to simulated. Batch Run ignores the setting.
type ClockMode = modes.ClockMode

const (
	ClockReal      = modes.ClockReal
	ClockSimulated = modes.ClockSimulated
)

// ParseClock converts a command-line spelling into a ClockMode. It
// accepts "real" (or "wall") and "simulated" (or "sim").
func ParseClock(s string) (ClockMode, error) {
	c, err := modes.ParseClock(s)
	if err != nil {
		return 0, fmt.Errorf("simulate: %w", err)
	}
	return c, nil
}

// Workload configures the synthetic PPLive-like arrival trace of
// Sec. VI-A: Zipf channel popularity, diurnal Poisson arrivals with flash
// crowds, exponential VCR-jump intervals, and bounded-Pareto peer uplinks.
type Workload = workload.Params

// Source is the demand seam: per-channel arrival intensity over time.
// Scenario.Source accepts any implementation — a recorded or generated
// trace (pkg/trace), or the parametric workload via Workload.Source —
// and both simulation engines, the bootstrap estimates, and the oracle
// policies' true-rate feed consume demand through it. See DESIGN.md
// "Workload sources and traces".
type Source = workload.Source

// FlashCrowd is one Gaussian arrival surge in the daily pattern.
type FlashCrowd = workload.FlashCrowd

// UplinkDistribution is the bounded-Pareto per-peer upload distribution
// used by Workload.PeerUplink.
type UplinkDistribution = mathx.BoundedPareto

// UplinkForRatio returns a peer-uplink distribution scaled so its mean is
// ratio × the streaming rate — the knob of the paper's Fig. 11 sweep.
func UplinkForRatio(streamingRate, ratio float64) (UplinkDistribution, error) {
	return workload.UplinkForRatio(streamingRate, ratio)
}

// DefaultWorkload returns the paper's trace parameters: 20 Zipf channels,
// ~2500 concurrent viewers, two flash crowds, 15-minute jump intervals.
func DefaultWorkload() Workload { return workload.Default() }

// BaseRateForViewers returns the aggregate base arrival rate that targets
// the given steady-state concurrent viewer count under the Default
// scenario's session length — the conversion behind WithViewerScale
// (250 viewers correspond to scale 1).
func BaseRateForViewers(viewers float64) float64 {
	return stack.BaseRateForViewers(viewers)
}

// Scheduling selects how the P2P overlay allocates peer uplink across
// chunks at each rebalance.
type Scheduling = sim.PeerScheduling

const (
	// RarestFirst serves the scarcest chunks first — the paper's scheme.
	RarestFirst = sim.RarestFirst
	// Proportional splits uplink in proportion to demand, ignoring
	// rareness — the ablation baseline.
	Proportional = sim.Proportional
)

// Predictor forecasts a channel's next-interval arrival rate from the
// observed per-interval history (oldest first). The paper provisions with
// the last observation and flags richer predictors as future work; this
// interface is that extension point.
type Predictor = core.Predictor

// LastInterval is the paper's predictor: next interval equals the rate
// just observed (Sec. V-B).
type LastInterval = core.LastInterval

// EWMA smooths the history with an exponentially weighted moving average.
type EWMA = core.EWMA

// PeakOfWindow provisions for the maximum over a trailing window.
type PeakOfWindow = core.PeakOfWindow

// DiurnalMemory forecasts with the observation one daily period ago.
type DiurnalMemory = core.DiurnalMemory

// Policy is the provisioning-policy seam: how predicted per-chunk demand
// becomes a rental plan each interval. Policies are stateless value specs
// safe to share across scenarios; see DESIGN.md "Provisioning policies".
type Policy = provision.Policy

// Greedy is the paper's policy: every interval, run the greedy heuristic
// on the predicted demand, scaling demand down when the budget is
// infeasible. The default.
type Greedy = provision.Greedy

// Lookahead provisions for the per-chunk maximum over the next K
// predicted intervals and releases capacity only after the lower target
// persists for Hysteresis rounds — the anti-thrash policy.
type Lookahead = provision.Lookahead

// Oracle plans like Greedy but on the true arrival intensity of the
// workload trace: the perfect-prediction cost/quality upper bound.
type Oracle = provision.Oracle

// StaticPeak rents the horizon's peak demand once at t=0 and holds it for
// the whole run — the fixed-provisioning baseline generalized.
type StaticPeak = provision.StaticPeak

// ParsePolicy converts a command-line spelling into a Policy. It accepts
// "greedy", "lookahead", "lookahead-hedged", "oracle", and "staticpeak".
func ParsePolicy(s string) (Policy, error) {
	p, err := provision.ParsePolicy(s)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return p, nil
}

// PricingPlan describes how rented resources turn into dollars: an
// on-demand tier plus an optional reserved tier (a committed fraction of
// every VM cluster at a discounted hourly rate with an upfront fee per
// term). The zero value is pure on-demand, the paper's literal pricing.
type PricingPlan = cloud.PricingPlan

// LedgerTotals is a billing aggregate: VM-hours split reserved/on-demand,
// GB-hours, and dollars per tier. Every IntervalRecord carries the
// interval's bill; every Report carries the run's total.
type LedgerTotals = cloud.LedgerTotals

// OnDemandPricing returns the paper's literal pricing: every VM-hour and
// GB-hour at the catalog price, no reservations.
func OnDemandPricing() PricingPlan { return cloud.OnDemandPricing() }

// ReservedPricing returns a reservation-heavy plan: 10% of every VM
// cluster committed per day at 45% of the catalog rate plus a 25%
// upfront, overflow on demand.
func ReservedPricing() PricingPlan { return cloud.ReservedPricing() }

// SpotPricing returns a spot-heavy plan: 70% of the elastic (beyond
// reserved) capacity billed at 30% of the catalog rate, carrying an
// expected 0.25 interruption events per hour. The discount is real money;
// the interruption risk is realized by the fault layer's seeded
// preemption process (see FaultSchedule) — hedge with
// Lookahead{SpotHedge: true}.
func SpotPricing() PricingPlan { return cloud.SpotPricing() }

// ParsePricing converts a command-line spelling into a PricingPlan. It
// accepts "on-demand", "reserved", and "spot".
func ParsePricing(s string) (PricingPlan, error) {
	p, err := cloud.ParsePricing(s)
	if err != nil {
		return PricingPlan{}, fmt.Errorf("simulate: %w", err)
	}
	return p, nil
}

// FaultSchedule is a declarative failure plan injected into a run at its
// control barriers: region outages (cross-region failover in the geo
// deployment, capacity blackouts in single-region runs), spot
// mass-preemptions, and capacity degradations. nil injects nothing. All
// fault handling is deterministic per seed and bit-identical across
// worker counts. See DESIGN.md "Failure injection and spot markets".
type FaultSchedule = fault.Schedule

// RegionOutage, SpotPreemption, and CapacityDegradation are the three
// fault kinds a FaultSchedule declares.
type (
	RegionOutage        = fault.RegionOutage
	SpotPreemption      = fault.SpotPreemption
	CapacityDegradation = fault.CapacityDegradation
)

// FaultPresets returns the named fault scenarios ("outage-flash",
// "preempt-peak", "degrade-evening"), aligned to the default workload's
// evening flash crowd.
func FaultPresets() map[string]*FaultSchedule { return fault.Presets() }

// FaultPresetNames lists the preset spellings, sorted, for CLI help.
func FaultPresetNames() []string { return fault.PresetNames() }

// ParseFault converts a command-line fault spec into a FaultSchedule: a
// preset name or comma-separated events like "outage@19.5h+2h",
// "preempt@20h:0.6", "degrade@18h+3h:0.5" (optionally region-scoped with
// a "name=" prefix). "" and "none" return nil.
func ParseFault(spec string) (*FaultSchedule, error) {
	s, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return s, nil
}

// IntervalRecord captures one provisioning round: the arrival-rate
// estimates, derived cloud demand, peer supply, the VM and storage plans
// applied, the interval's ledger bill, and the round's errors (demand
// analysis, VM and storage planning, a rejected SLA submit).
type IntervalRecord = core.IntervalRecord
