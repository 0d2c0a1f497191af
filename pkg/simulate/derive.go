package simulate

import (
	"fmt"

	"cloudmedia/internal/stack"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/plan"
)

// Option is a functional option shared with the root cloudmedia package:
// cloudmedia.WithHours, cloudmedia.WithBudgets, and the rest apply here
// unchanged (the two names alias one type). An option writes its value
// into the Settings it is given; options apply in argument order, so the
// last write to a field wins. An option that sets a Scenario field judges
// nothing: a zero or nil argument means the field's default, and an
// invalid one fails Validate, wrapped in ErrInvalidScenario. Only an
// option whose argument is not a field value (a scale, a demand source,
// a rate list) returns an error itself, for a bad argument or a conflict
// with an earlier option. Scenario.With and NewPipeline run them.
type Option func(*Settings) error

// Settings is what an Option writes: the Scenario being built, plus the
// knobs that do not land in a scenario field as soon as they are set.
// Every other option writes its Scenario field directly.
type Settings struct {
	// Scenario is the scenario being derived. NewPipeline seeds it with
	// the paper's channel and reads the channel, budgets and catalogs
	// back, filling a zero budget or a nil catalog with a run's default.
	Scenario Scenario

	// The demand knobs Scenario.With resolves after every option has run,
	// because their precedence is not argument order (see With). A nil
	// field was not set.
	Scale       *float64
	ViewerScale *float64
	Workload    *Workload
	Source      Source
	Channels    *int

	// The knobs only the one-shot cloudmedia.Pipeline reads; a Scenario
	// ignores them. A nil or zero field was not set.
	Rates      []float64
	PeerUplink float64
	Transfer   plan.TransferMatrix
	Viewing    *[2]float64
}

// With returns a derived scenario: a deep copy of the receiver with the
// options applied on top in argument order. The copy shares no mutable
// state with its parent — workloads, catalogs, and every other reference
// field are cloned — so parent and child can be mutated and run
// concurrently. Pipeline-only options (WithArrivalRate, WithTransfer, …)
// are harmless no-ops, matching NewScenario. The first failing option
// stops the derivation; its error surfaces on the next Validate or Run of
// the derived scenario, so derivation chains stay fluent:
//
//	base, _ := cloudmedia.NewScenario(cloudmedia.CloudAssisted, cloudmedia.WithHours(12))
//	cheap := base.With(cloudmedia.WithBudgets(50, 1))
//	crowded := cheap.With(cloudmedia.WithScale(2), cloudmedia.WithSeed(7))
//
// Five demand knobs are resolved after the options have run, whatever
// their order: WithScale is relative and rescales the parent's demand,
// WithViewerScale then pins the base rate absolutely, WithWorkload and
// the demand-source options replace the demand wholesale, and
// WithChannels sets the channel count of whichever workload results.
func (sc Scenario) With(opts ...Option) Scenario {
	s := Settings{Scenario: sc.Clone()}
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			s.Scenario.err = err
			return s.Scenario
		}
	}
	out := s.Scenario
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
	if s.Channels != nil {
		out.Workload.Channels = *s.Channels
	}
	return out
}
