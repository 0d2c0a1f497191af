package simulate

import (
	"errors"
	"fmt"
	"math"

	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/pkg/plan"
)

// ErrInvalidScenario is wrapped by every scenario-validation failure —
// an invalid mode, a non-positive duration, a negative period, or an
// option conflict recorded during With. Detect it with errors.Is:
//
//	if _, err := sc.Run(ctx); errors.Is(err, simulate.ErrInvalidScenario) { … }
var ErrInvalidScenario = errors.New("simulate: invalid scenario")

// Scenario bundles every knob a simulation run needs. The zero value is
// invalid; start from Default and override fields, or derive a variant
// from an existing scenario with With.
type Scenario struct {
	// Mode is the architecture under test.
	Mode Mode
	// Fidelity selects the simulation engine: zero or FidelityEvent runs
	// the per-viewer discrete-event simulator, FidelityFluid the
	// aggregate cohort integrator whose state is O(channels × chunks)
	// regardless of crowd size — the backend for million-viewer runs.
	Fidelity Fidelity
	// Channel holds the per-channel parameters (channels are uniform, as
	// in the paper).
	Channel plan.Channel
	// Workload drives the arrival trace.
	Workload Workload
	// Source, when non-nil, overrides the demand side of the workload
	// with an arbitrary arrival-intensity source — most usefully a
	// recorded or generated *trace.Trace (pkg/trace). The channel count
	// then follows the source; Workload keeps supplying the behavioural
	// parameters (VCR jumps, peer uplinks), and oracle policies plan on
	// the source's true rates.
	Source Source
	// Hours is the simulated duration.
	Hours float64
	// IntervalSeconds is the provisioning period T; 0 means hourly.
	IntervalSeconds float64
	// VMBudget is B_M in $/hour (the paper uses 100).
	VMBudget float64
	// StorageBudget is B_S in $/hour (the paper uses 1).
	StorageBudget float64
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// SampleSeconds is the measurement sampling period; 0 means 900.
	SampleSeconds float64
	// UplinkRatio, if > 0, rescales peer uplinks so their mean is
	// ratio × the streaming rate (the Fig. 11 sweep).
	UplinkRatio float64
	// Predictor overrides the controller's arrival-rate forecaster; nil
	// uses the paper's last-interval rule.
	Predictor Predictor
	// Policy selects the provisioning policy (how predicted demand turns
	// into rental plans); nil uses Greedy, the paper's heuristic.
	Policy Policy
	// Pricing selects the cloud billing plan; the zero value is pure
	// on-demand, the paper's literal pricing.
	Pricing PricingPlan
	// Faults is the declarative failure plan injected at the run's control
	// barriers; nil injects nothing. A spot Pricing plan with an
	// interruption rate drives its own seeded preemption process even with
	// no schedule.
	Faults *FaultSchedule
	// Scheduling overrides the P2P uplink allocation policy; zero uses
	// rarest-first, the paper's scheme.
	Scheduling Scheduling
	// Workers bounds the worker pool both engines use to step channels in
	// parallel between control barriers; 0 means GOMAXPROCS. Results are
	// bit-identical for every value — it is purely a throughput knob.
	Workers int
	// VMClusters and NFSClusters override the rental catalogs; nil uses
	// the paper's Table II/III defaults.
	VMClusters  []plan.VMCluster
	NFSClusters []plan.NFSCluster
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
	base := stack.DefaultScenario(0, scale)
	return Scenario{
		Mode:            mode,
		Channel:         base.Channel,
		Workload:        base.Workload,
		Hours:           base.Hours,
		IntervalSeconds: base.IntervalSeconds,
		VMBudget:        base.VMBudget,
		StorageBudget:   base.StorageBudget,
		Seed:            base.Seed,
		SampleSeconds:   base.SampleSeconds,
	}
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
	if _, err := sc.internal(); err != nil {
		return err
	}
	return nil
}

// internal converts the public scenario into the stack builder's spec,
// applying the mode mapping.
func (sc Scenario) internal() (stack.Scenario, error) {
	if sc.err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, sc.err)
	}
	engineMode, static, err := modes.Engine(sc.Mode)
	if err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if sc.Fidelity != 0 && sc.Fidelity != FidelityEvent && sc.Fidelity != FidelityFluid {
		return stack.Scenario{}, fmt.Errorf("%w: invalid fidelity %d", ErrInvalidScenario, int(sc.Fidelity))
	}
	if sc.SampleSeconds < 0 {
		return stack.Scenario{}, fmt.Errorf("%w: negative sampling period %v s", ErrInvalidScenario, sc.SampleSeconds)
	}
	if err := sc.Channel.Validate(); err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if err := sc.Workload.Validate(); err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if sc.Source != nil {
		if err := sc.Source.Validate(); err != nil {
			return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
		}
		if sc.Source.NumChannels() <= 0 {
			return stack.Scenario{}, fmt.Errorf("%w: demand source has no channels", ErrInvalidScenario)
		}
	}
	if err := sc.Pricing.Validate(); err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if err := sc.Faults.Validate(); err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if v, ok := sc.Policy.(interface{ Validate() error }); ok && sc.Policy != nil {
		if err := v.Validate(); err != nil {
			return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
		}
	}
	if c := sc.Serve.Clock; c != 0 && c != ClockReal && c != ClockSimulated {
		return stack.Scenario{}, fmt.Errorf("%w: invalid clock mode %d", ErrInvalidScenario, int(c))
	}
	if ts := sc.Serve.TimeScale; ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return stack.Scenario{}, fmt.Errorf("%w: invalid time scale %v", ErrInvalidScenario, ts)
	}
	if sc.Workers < 0 {
		return stack.Scenario{}, fmt.Errorf("%w: negative workers %d", ErrInvalidScenario, sc.Workers)
	}
	out := stack.Scenario{
		Mode:               engineMode,
		Fidelity:           sc.Fidelity,
		Channel:            sc.Channel,
		Workload:           sc.Workload,
		Source:             sc.Source,
		Hours:              sc.Hours,
		IntervalSeconds:    sc.IntervalSeconds,
		VMBudget:           sc.VMBudget,
		StorageBudget:      sc.StorageBudget,
		Seed:               sc.Seed,
		SampleSeconds:      sc.SampleSeconds,
		UplinkRatio:        sc.UplinkRatio,
		Predictor:          sc.Predictor,
		Policy:             sc.Policy,
		Pricing:            sc.Pricing,
		Faults:             sc.Faults,
		Scheduling:         sc.Scheduling,
		Workers:            sc.Workers,
		VMClusters:         sc.VMClusters,
		NFSClusters:        sc.NFSClusters,
		StaticProvisioning: static,
	}
	if out.IntervalSeconds == 0 {
		out.IntervalSeconds = 3600
	}
	if out.SampleSeconds == 0 {
		out.SampleSeconds = 900
	}
	if err := out.Validate(); err != nil {
		return stack.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	return out, nil
}
