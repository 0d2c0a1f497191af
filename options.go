package cloudmedia

import (
	"fmt"
	"math"

	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

// Option configures a Pipeline or a Scenario. Options are shared between
// the two builders: channel-shape, budget, and catalog options apply to
// both, while workload and timing options only affect NewScenario and the
// arrival/transfer options only affect NewPipeline (each Option's comment
// says which). Passing an option to a builder it does not affect is
// harmless.
//
// The same options re-apply to an existing scenario through
// Scenario.With, which derives an independent copy:
//
//	cheap := sc.With(cloudmedia.WithBudgets(50, 1))
//
// Option is one type across the module — cloudmedia.Option aliases
// simulate.Option — so options built here flow into pkg/simulate and
// pkg/sweep unchanged. Options apply in argument order. An option that
// sets a scenario field writes it and nothing else, so the last one
// wins, a zero or nil argument restores the field's default, and an
// invalid argument fails the scenario's Validate (and Run) wrapped in
// simulate.ErrInvalidScenario. Scenario.With documents the five demand
// knobs it resolves after every option has run.
type Option = simulate.Option

// set wraps a field write as an Option.
func set(write func(*simulate.Settings)) Option {
	return func(s *simulate.Settings) error {
		write(s)
		return nil
	}
}

// WithChunks sets J, the number of chunks each video is divided into.
func WithChunks(n int) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.Chunks = n })
}

// WithPlaybackRate sets r, the streaming playback rate in bytes/s (the
// paper uses 50e3, i.e. 400 Kbps).
func WithPlaybackRate(bytesPerSecond float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.PlaybackRate = bytesPerSecond })
}

// WithChunkSeconds sets T₀, the playback time of one chunk.
func WithChunkSeconds(seconds float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.ChunkSeconds = seconds })
}

// WithVMBandwidth sets R, the upload bandwidth allocated to each VM in
// bytes/s (the paper uses 10 Mbps).
func WithVMBandwidth(bytesPerSecond float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.VMBandwidth = bytesPerSecond })
}

// WithSlotsPerVM sets the capacity granularity of the queueing servers:
// each server is R/slots of bandwidth. 0 or 1 is the paper's literal
// whole-VM mapping; larger values model the fractional VM shares Eqn. (7)
// permits.
func WithSlotsPerVM(slots int) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.SlotsPerVM = slots })
}

// WithEntryFirstChunk sets α, the fraction of arrivals that start watching
// at chunk 1 (the paper uses 0.7).
func WithEntryFirstChunk(alpha float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Channel.EntryFirstChunk = alpha })
}

// WithTransfer sets the viewing-behaviour transfer matrix explicitly.
// Pipeline only; Scenario derives its matrix from the workload's jump
// parameters. Mutually exclusive with WithViewing.
func WithTransfer(p plan.TransferMatrix) Option {
	return func(s *simulate.Settings) error {
		if s.Viewing != nil {
			return fmt.Errorf("cloudmedia: WithTransfer conflicts with WithViewing")
		}
		s.Transfer = p
		return nil
	}
}

// WithViewing builds the sequential-with-VCR-jumps transfer matrix from a
// per-chunk continuation probability and a jump probability (the paper
// uses 0.9 and 1/3). Pipeline only. Mutually exclusive with WithTransfer.
func WithViewing(cont, jump float64) Option {
	return func(s *simulate.Settings) error {
		if s.Transfer != nil {
			return fmt.Errorf("cloudmedia: WithViewing conflicts with WithTransfer")
		}
		s.Viewing = &[2]float64{cont, jump}
		return nil
	}
}

// WithArrivalRate sets the external channel arrival rates Λ in users/s,
// one value per channel; a single value analyzes a single channel.
// Pipeline only; Scenario arrivals come from the workload trace.
func WithArrivalRate(usersPerSecond ...float64) Option {
	return func(s *simulate.Settings) error {
		if len(usersPerSecond) == 0 {
			return fmt.Errorf("cloudmedia: WithArrivalRate needs at least one rate")
		}
		s.Rates = usersPerSecond
		return nil
	}
}

// WithPeerUplink sets u, the mean per-peer upload bandwidth in bytes/s,
// enabling the peer-supply stage; 0 (the default) analyzes a pure
// client-server system. Pipeline only; for a Scenario use WithUplinkRatio
// or WithWorkload.
func WithPeerUplink(bytesPerSecond float64) Option {
	return set(func(s *simulate.Settings) { s.PeerUplink = bytesPerSecond })
}

// WithBudgets sets the hourly rental budgets: B_M for VMs and B_S for
// storage, in dollars; zero restores the default, the paper's 100 and 1.
func WithBudgets(vmPerHour, storagePerHour float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.VMBudget, s.Scenario.StorageBudget = vmPerHour, storagePerHour })
}

// WithVMClusters sets the VM rental catalog; called with no clusters it
// restores the default, the paper's Table II.
func WithVMClusters(clusters ...plan.VMCluster) Option {
	return set(func(s *simulate.Settings) { s.Scenario.VMClusters = append([]plan.VMCluster(nil), clusters...) })
}

// WithNFSClusters sets the storage rental catalog; called with no
// clusters it restores the default, the paper's Table III.
func WithNFSClusters(clusters ...plan.NFSCluster) Option {
	return set(func(s *simulate.Settings) { s.Scenario.NFSClusters = append([]plan.NFSCluster(nil), clusters...) })
}

// WithHours sets the simulated duration. Scenario only.
func WithHours(hours float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Hours = hours })
}

// WithSeed sets the random seed; runs are reproducible per seed. Scenario
// only.
func WithSeed(seed int64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Seed = seed })
}

// WithScale sets the workload scale: in NewScenario, 1 targets ~250
// concurrent viewers and 10 approaches the paper's ~2500. In
// Scenario.With the scale is relative: it multiplies the derived
// scenario's current arrival rate, so With(WithScale(2)) doubles the
// crowd. The scale must be positive and finite. Scenario only.
func WithScale(scale float64) Option {
	return func(s *simulate.Settings) error {
		if scale <= 0 {
			return fmt.Errorf("cloudmedia: non-positive scale %v", scale)
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return fmt.Errorf("cloudmedia: non-finite scale %v", scale)
		}
		s.Scale = &scale
		return nil
	}
}

// WithInterval sets the provisioning period T in seconds (default 3600,
// the hourly rental granularity). Scenario only.
func WithInterval(seconds float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.IntervalSeconds = seconds })
}

// WithSampleSeconds sets the measurement sampling period (default 900).
// Scenario only.
func WithSampleSeconds(seconds float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.SampleSeconds = seconds })
}

// WithUplinkRatio rescales the workload's peer uplinks so their mean is
// ratio × the streaming rate — the paper's Fig. 11 sweep. Scenario only.
func WithUplinkRatio(ratio float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.UplinkRatio = ratio })
}

// WithChannels sets the number of video channels in the workload.
// Scenario only; a Pipeline's channel count follows WithArrivalRate.
func WithChannels(n int) Option {
	return set(func(s *simulate.Settings) { s.Channels = &n })
}

// WithWorkers bounds the worker pool both engines use to step channels in
// parallel between control barriers: n goroutines shard the channel set,
// clamped to the channel count. 0 (the default) uses GOMAXPROCS. Results
// are bit-identical for every worker count on both engines — parallelism
// is a throughput knob, never a behaviour knob. Scenario only.
func WithWorkers(n int) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Workers = n })
}

// WithFidelity selects the simulation engine: FidelityEvent (the
// default, also selected by zero) runs the per-viewer discrete-event
// simulator, FidelityFluid the aggregate cohort integrator whose cost is
// independent of the crowd size. Scenario only.
func WithFidelity(f Fidelity) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Fidelity = f })
}

// WithViewerScale targets an absolute steady-state crowd size: the
// workload's arrival rate is set so roughly n viewers are concurrent at
// the daily baseline. It is the absolute counterpart of the relative
// WithScale (n = 250 matches scale 1); combine it with
// WithFidelity(FidelityFluid) for million-viewer runs. Scenario only.
func WithViewerScale(n float64) Option {
	return func(s *simulate.Settings) error {
		if n <= 0 {
			return fmt.Errorf("cloudmedia: non-positive viewer scale %v", n)
		}
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("cloudmedia: non-finite viewer scale %v", n)
		}
		s.ViewerScale = &n
		return nil
	}
}

// WithPredictor sets the controller's arrival-rate forecaster; nil
// restores the default, simulate.LastInterval (the paper's rule).
// Scenario only.
func WithPredictor(p simulate.Predictor) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Predictor = p })
}

// WithPolicy selects the provisioning policy that turns predicted demand
// into rental plans each interval (nil restores the default,
// simulate.Greedy, the paper's heuristic): simulate.Lookahead plans for
// the max of the next k forecasts with tear-down hysteresis,
// simulate.Oracle plans on the true arrival trace (the
// perfect-prediction bound), and simulate.StaticPeak rents the horizon's
// peak once and holds it. Scenario only.
func WithPolicy(p simulate.Policy) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Policy = p })
}

// WithPricing selects the cloud pricing plan the run is billed under
// (the zero plan is the default, simulate.OnDemandPricing, the paper's
// literal pay-as-you-go prices; simulate.ReservedPricing adds a
// discounted reserved tier with an upfront fee per term, and
// simulate.SpotPricing discounted capacity the provider may preempt —
// hedge that with WithPolicy(simulate.Lookahead{SpotHedge: true})).
// Scenario only.
func WithPricing(p simulate.PricingPlan) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Pricing = p })
}

// WithFaults injects a declarative failure plan at the run's control
// barriers: region outages, spot mass-preemptions, and capacity
// degradations (simulate.FaultSchedule; build one literally or with
// simulate.ParseFault). nil restores the default, which injects
// nothing. Fault runs stay deterministic per seed and bit-identical
// across worker counts. Scenario only.
func WithFaults(f *simulate.FaultSchedule) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Faults = f.Clone() })
}

// WithScheduling selects the P2P uplink allocation policy; zero restores
// the default, simulate.RarestFirst (the paper's scheme). Scenario only.
func WithScheduling(policy simulate.Scheduling) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Scheduling = policy })
}

// WithWorkload replaces the whole workload trace configuration. Scenario
// only; combine with simulate.DefaultWorkload to start from the paper's.
func WithWorkload(w simulate.Workload) Option {
	return set(func(s *simulate.Settings) { s.Workload = &w })
}

// WithWorkloadSource overrides the demand side of the workload with an
// arbitrary arrival-intensity source (simulate.Source): a recorded or
// generated trace, or any custom implementation. The channel count then
// follows the source, the engines sample arrivals from it, and oracle
// policies plan on its true rates; the parametric workload keeps
// supplying the behavioural knobs (VCR jumps, peer uplinks). Scenario
// only. Mutually exclusive with WithTrace.
func WithWorkloadSource(src simulate.Source) Option {
	return func(s *simulate.Settings) error {
		if src == nil {
			return fmt.Errorf("cloudmedia: nil workload source")
		}
		if s.Source != nil {
			return fmt.Errorf("cloudmedia: WithWorkloadSource conflicts with an earlier demand source option")
		}
		s.Source = src
		return nil
	}
}

// WithTrace drives the scenario's arrivals from a demand trace — a
// recorded run, a parsed CSV/JSON artifact, or a synthetic generator
// from pkg/trace. Sugar for WithWorkloadSource(t). Scenario only.
// Mutually exclusive with WithWorkloadSource.
func WithTrace(t *trace.Trace) Option {
	return func(s *simulate.Settings) error {
		if t == nil {
			return fmt.Errorf("cloudmedia: nil trace")
		}
		if s.Source != nil {
			return fmt.Errorf("cloudmedia: WithTrace conflicts with an earlier demand source option")
		}
		s.Source = t
		return nil
	}
}

// WithClock selects how a live serving run (pkg/serve) paces simulated
// time: ClockReal against the wall clock, ClockSimulated at full engine
// speed; zero restores the default, ClockReal. Scenario only; batch Run
// ignores it.
func WithClock(mode ClockMode) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Serve.Clock = mode })
}

// WithTimeScale sets the live-serving time compression: one simulated
// second takes 1/factor real seconds under the real clock (24 replays a
// day-long trace in an hour; factors beyond 24 suit tests and smoke
// runs); zero restores the default, 1. Scenario only; batch Run ignores
// it.
func WithTimeScale(factor float64) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Serve.TimeScale = factor })
}

// WithMetricsAddr sets the TCP address the live serving run's
// observability endpoint (/metrics, /healthz, /state) listens on, e.g.
// ":9090". Empty disables the endpoint. Scenario only; batch Run
// ignores it.
func WithMetricsAddr(addr string) Option {
	return set(func(s *simulate.Settings) { s.Scenario.Serve.MetricsAddr = addr })
}
