package simulate

import (
	"fmt"

	"cloudmedia/internal/config"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/plan"
)

// Option is a functional option shared with the root cloudmedia package:
// cloudmedia.WithHours, cloudmedia.WithBudgets, and the rest apply here
// unchanged (the two names alias one type). Scenario.With re-applies them
// to a derived copy.
type Option = config.Option

// With returns a derived scenario: a deep copy of the receiver with the
// options re-applied on top. The copy shares no mutable state with its
// parent — workloads, catalogs, and every other reference field are
// cloned — so parent and child can be mutated and run concurrently.
// Pipeline-only options (WithArrivalRate, WithTransfer, …) are harmless
// no-ops, matching NewScenario; WithScale is relative, multiplying the
// current arrival rate. Option conflicts surface on the next Validate or
// Run of the derived scenario, so derivation chains stay fluent:
//
//	base, _ := cloudmedia.NewScenario(cloudmedia.CloudAssisted, cloudmedia.WithHours(12))
//	cheap := base.With(cloudmedia.WithBudgets(50, 1))
//	crowded := cheap.With(cloudmedia.WithScale(2), cloudmedia.WithSeed(7))
func (sc Scenario) With(opts ...Option) Scenario {
	out := sc.Clone()
	s, err := config.Apply(opts)
	if err != nil {
		out.err = err
		return out
	}
	// Scale first: it rescales the *current* workload (or the current
	// demand source — a trace's arrival intensity is multiplied, since
	// rescaling the unused parametric base rate would be a silent no-op),
	// and an explicit WithWorkload or demand-source option in the same
	// call replaces the demand wholesale (the replacement is taken as-is,
	// matching NewScenario's precedence). WithViewerScale is absolute —
	// it pins the base rate to the target concurrency regardless of the
	// current rate — so it wins over the relative WithScale when both
	// appear; it is defined only for the parametric workload, so
	// combining it with a demand source is a recorded conflict.
	if s.Scale != nil {
		if out.Source != nil {
			scaled, err := workload.Scaled(out.Source, *s.Scale)
			if err != nil {
				out.err = err
				return out
			}
			out.Source = scaled
		} else {
			out.Workload.BaseArrivalRate *= *s.Scale
		}
	}
	if s.ViewerScale != nil {
		if out.Source != nil || s.Source != nil {
			out.err = fmt.Errorf("simulate: WithViewerScale targets the parametric workload and conflicts with a demand source (scale the trace instead: Trace.Scale or WithScale)")
			return out
		}
		out.Workload.BaseArrivalRate = stack.BaseRateForViewers(*s.ViewerScale)
	}
	if s.Workload != nil {
		out.Workload = s.Workload.Clone()
	}
	if s.Source != nil {
		out.Source = s.Source.CloneSource()
	}
	out.Channel = s.Channel(out.Channel)
	if s.Channels != nil {
		out.Workload.Channels = *s.Channels
	}
	if s.Hours != nil {
		out.Hours = *s.Hours
	}
	if s.Seed != nil {
		out.Seed = *s.Seed
	}
	if s.Interval != nil {
		out.IntervalSeconds = *s.Interval
	}
	if s.Sample != nil {
		out.SampleSeconds = *s.Sample
	}
	if s.UplinkRatio != nil {
		out.UplinkRatio = *s.UplinkRatio
	}
	if s.Budgets != nil {
		out.VMBudget, out.StorageBudget = s.Budgets[0], s.Budgets[1]
	}
	if s.VMClusters != nil {
		out.VMClusters = append([]plan.VMCluster(nil), s.VMClusters...)
	}
	if s.NFSClusters != nil {
		out.NFSClusters = append([]plan.NFSCluster(nil), s.NFSClusters...)
	}
	if s.Predictor != nil {
		out.Predictor = s.Predictor
	}
	if s.Policy != nil {
		out.Policy = s.Policy
	}
	if s.Pricing != nil {
		out.Pricing = *s.Pricing
	}
	if s.Faults != nil {
		out.Faults = s.Faults.Clone()
	}
	if s.Scheduling != 0 {
		out.Scheduling = s.Scheduling
	}
	if s.Workers != nil {
		out.Workers = *s.Workers
	}
	if s.Fidelity != 0 {
		out.Fidelity = s.Fidelity
	}
	if s.Clock != 0 {
		out.Serve.Clock = s.Clock
	}
	if s.TimeScale != nil {
		out.Serve.TimeScale = *s.TimeScale
	}
	if s.MetricsAddr != nil {
		out.Serve.MetricsAddr = *s.MetricsAddr
	}
	return out
}

// Clone returns a deep copy of the scenario: the workload (including its
// flash-crowd list and cached popularity weights) and the rental catalogs
// are reallocated, so mutating the copy never reaches the original.
// Predictor and Policy values are shared; both are stateless specs (each
// run builds its own planner and billing ledger from them, so two clones
// running concurrently share no ledger or planner state).
func (sc Scenario) Clone() Scenario {
	sc.Workload = sc.Workload.Clone()
	if sc.Source != nil {
		sc.Source = sc.Source.CloneSource()
	}
	sc.VMClusters = append([]plan.VMCluster(nil), sc.VMClusters...)
	sc.NFSClusters = append([]plan.NFSCluster(nil), sc.NFSClusters...)
	sc.Faults = sc.Faults.Clone()
	return sc
}
