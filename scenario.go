package cloudmedia

import (
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

// Mode selects the VoD architecture a Scenario simulates; see the
// simulate.Mode constants re-exported below.
type Mode = simulate.Mode

// The three architectures of the paper's evaluation: pure client-server
// streaming, the P2P mesh with a static bootstrap rental, and CloudMedia's
// dynamically provisioned cloud-assisted P2P.
const (
	ClientServer  = simulate.ClientServer
	P2P           = simulate.P2P
	CloudAssisted = simulate.CloudAssisted
)

// Fidelity selects the simulation engine behind a Scenario; see the
// simulate.Fidelity constants re-exported below and DESIGN.md "Engine
// fidelities".
type Fidelity = simulate.Fidelity

// The two engine fidelities: the per-viewer discrete-event simulator (the
// default and the accuracy reference) and the aggregate fluid-cohort
// integrator for million-viewer runs.
const (
	FidelityEvent = simulate.FidelityEvent
	FidelityFluid = simulate.FidelityFluid
)

// ClockMode selects how a live serving run (pkg/serve) paces simulated
// time against real time; see the simulate.ClockMode constants
// re-exported below and DESIGN.md "Real-time serving".
type ClockMode = simulate.ClockMode

// The two pacing modes: against the wall clock under a time-compression
// factor (the serve daemon's default), or at full engine speed exactly
// like a batch Run (deterministic, for tests).
const (
	ClockReal      = simulate.ClockReal
	ClockSimulated = simulate.ClockSimulated
)

// Policy is the provisioning-policy seam: how predicted demand becomes a
// rental plan each interval. Pass one to WithPolicy; see the re-exported
// implementations below and DESIGN.md "Provisioning policies".
type Policy = simulate.Policy

// The four provisioning policies: the paper's greedy heuristic (the
// default), lookahead with tear-down hysteresis, the perfect-prediction
// oracle bound, and the fixed peak rental baseline.
type (
	Greedy     = simulate.Greedy
	Lookahead  = simulate.Lookahead
	Oracle     = simulate.Oracle
	StaticPeak = simulate.StaticPeak
)

// PricingPlan describes how rented resources turn into dollars; pass one
// to WithPricing. The zero value is pure on-demand billing.
type PricingPlan = simulate.PricingPlan

// OnDemandPricing returns the paper's literal pay-as-you-go pricing.
func OnDemandPricing() PricingPlan { return simulate.OnDemandPricing() }

// ReservedPricing returns a reservation-heavy plan: a committed fraction
// of every VM cluster at a discounted rate plus an upfront fee per term.
func ReservedPricing() PricingPlan { return simulate.ReservedPricing() }

// SpotPricing returns a spot-heavy plan: deeply discounted elastic
// capacity that the provider may mass-preempt. Pass it to WithPricing.
func SpotPricing() PricingPlan { return simulate.SpotPricing() }

// FaultSchedule is a declarative failure plan — region outages, spot
// mass-preemptions, capacity degradations — injected into a run with
// WithFaults. See pkg/simulate for the event types and presets.
type FaultSchedule = simulate.FaultSchedule

// Source is the pluggable demand seam: per-channel arrival intensity
// over time. Pass one to WithWorkloadSource — most usefully a *Trace —
// and the engines, the bootstrap, and the oracle policies all follow it.
type Source = simulate.Source

// Trace is a per-channel arrival-intensity series (pkg/trace): recorded
// from a run, parsed from CSV/JSON, or synthesized. Pass one to
// WithTrace.
type Trace = trace.Trace

// Scenario is a fully assembled simulation configuration; run it with its
// context-aware Run or Stream methods. See pkg/simulate for the field and
// streaming documentation.
type Scenario = simulate.Scenario

// IntervalRecord is one provisioning round of a running scenario.
type IntervalRecord = simulate.IntervalRecord

// Report summarizes a finished scenario run.
type Report = simulate.Report

// NewScenario builds a simulation scenario from the paper's reduced-scale
// defaults (simulate.Default) overridden by the given options:
//
//	sc, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted,
//		cloudmedia.WithHours(12),
//		cloudmedia.WithScale(2),
//	)
//	report, err := sc.Run(ctx)
//
// Channel-shape, budget, and catalog options apply here exactly as they do
// to NewPipeline; workload and timing options (WithHours, WithSeed,
// WithScale, WithChannels, WithPredictor, …) are scenario-specific.
//
// NewScenario is sugar for simulate.Default(mode, 1).With(opts...) plus
// validation; derive further variants from the result with Scenario.With.
func NewScenario(mode Mode, opts ...Option) (Scenario, error) {
	sc := simulate.Default(mode, 1).With(opts...)
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
