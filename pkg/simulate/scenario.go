package simulate

import (
	"errors"
	"fmt"
	"math"

	"cloudmedia/internal/stack"
	"cloudmedia/pkg/plan"
)

// ErrInvalidScenario is wrapped by every scenario-validation failure —
// an invalid mode, a non-positive duration, a negative period, or an
// option conflict recorded during With. Detect it with errors.Is:
//
//	if _, err := sc.Run(ctx); errors.Is(err, simulate.ErrInvalidScenario) { … }
var ErrInvalidScenario = errors.New("simulate: invalid scenario")

// Spec is every knob of a simulation run: the architecture, engine,
// channel, workload and demand source, duration and periods, budgets,
// seed, predictor, policy, pricing, faults, scheduling, workers and
// rental catalogs. Scenario embeds it, so its fields read and write
// directly on a Scenario (sc.Hours = 12).
type Spec = stack.Spec

// Scenario bundles every knob a simulation run needs. The zero value is
// invalid; start from Default and override fields, or derive a variant
// from an existing scenario with With.
type Scenario struct {
	Spec
	// Serve configures live serving (pkg/serve); batch Run ignores it.
	Serve ServeSettings

	// err records an option conflict observed during With; Validate and
	// Run surface it wrapped in ErrInvalidScenario.
	err error
}

// ServeSettings is the live-serving block of a Scenario, consumed only
// by pkg/serve (batch Run ignores it; the options WithClock,
// WithTimeScale, and WithMetricsAddr write it).
type ServeSettings struct {
	// Clock selects the pacing mode; the zero value lets serve.Run pick
	// its default (real).
	Clock ClockMode
	// TimeScale compresses simulated time for the real clock: one
	// simulated second takes 1/TimeScale real seconds. 0 means 1; 24
	// replays a day-long trace in an hour.
	TimeScale float64
	// MetricsAddr, when non-empty, is the TCP address the observability
	// endpoint listens on (e.g. ":9090").
	MetricsAddr string
}

// Default returns the reduced-scale counterpart of the paper's setup for
// the given mode: Zipf channels, diurnal arrivals with two flash crowds,
// hourly provisioning, Table II/III catalogs, B_M = $100/h, B_S = $1/h.
// scale 1 targets ~250 concurrent viewers; 10 approaches paper scale.
func Default(mode Mode, scale float64) Scenario {
	return Scenario{Spec: stack.DefaultSpec(mode, scale)}
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

// Validate reports the first violated scenario invariant without running
// anything. Every failure wraps ErrInvalidScenario.
func (sc Scenario) Validate() error {
	err := sc.err
	if err == nil {
		err = sc.Spec.Validate()
	}
	if err == nil {
		err = sc.Serve.validate()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	return nil
}

func (s ServeSettings) validate() error {
	if c := s.Clock; c != 0 && c != ClockReal && c != ClockSimulated {
		return fmt.Errorf("invalid clock mode %d", int(c))
	}
	if ts := s.TimeScale; ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return fmt.Errorf("invalid time scale %v", ts)
	}
	return nil
}
