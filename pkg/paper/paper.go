// Package paper regenerates the tables and figures of the evaluation
// section of Wu et al., "CloudMedia: When Cloud on Demand Meets Video on
// Demand" (ICDCS 2011): the Table II/III catalogs, the Fig. 4–11
// simulation studies, and the Sec. VI-C microbenchmarks.
//
//	res, err := paper.Run("fig10", paper.Options{Mode: simulate.CloudAssisted, Scale: 2, Hours: 12})
//	for _, tbl := range res.Tables {
//		tbl.Render(os.Stdout)
//	}
//
// The cloudmedia CLI (cmd/cloudmedia) is a thin flag wrapper around this
// package.
package paper

import (
	"fmt"

	"cloudmedia/internal/experiments"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/pkg/simulate"
)

// Table is one column-oriented result table; Render writes aligned text
// and RenderCSV comma-separated values.
type Table = metrics.Table

// NewTable creates an empty table with the given title and column headers
// — for callers assembling their own reports alongside the paper's.
func NewTable(title string, headers ...string) *Table {
	return metrics.NewTable(title, headers...)
}

// Result is the output of one experiment: the paper artifact's data as
// tables plus headline summary numbers.
type Result = experiments.Result

// Options selects the run configuration shared by every experiment.
type Options struct {
	// Mode is the architecture under test; zero means client-server.
	// Comparative figures (fig4, fig5, fig10, …) run the modes they
	// compare regardless of this setting.
	Mode simulate.Mode
	// Fidelity selects the simulation engine; zero means the per-viewer
	// event engine. Every experiment honours it, including the
	// comparative figures (both sides run on the chosen engine).
	Fidelity simulate.Fidelity
	// Policy selects the provisioning policy; nil means greedy, the
	// paper's heuristic. Like Fidelity, every simulation experiment
	// honours it (costfrontier pins the policies it compares).
	Policy simulate.Policy
	// Pricing selects the cloud billing plan; the zero value is pure
	// on-demand, the paper's literal prices (costfrontier pins the plans
	// it compares).
	Pricing simulate.PricingPlan
	// Source, when non-nil, replaces the parametric demand with a trace
	// or custom arrival-intensity source (the CLI's -trace flag); the
	// channel count follows the source. Experiments that synthesize their
	// own workloads (regional) ignore it.
	Source simulate.Source
	// Faults injects a declarative failure plan (the CLI's -fault flag):
	// region outages, spot mass-preemptions, capacity degradations. nil
	// injects nothing (resilience pins the schedules it compares).
	Faults *simulate.FaultSchedule
	// Scale is the workload scale: 1 ≈ 250 concurrent viewers, 10 ≈ paper
	// scale. Zero means 2.
	Scale float64
	// Hours is the simulated duration per run; zero means 24.
	Hours float64
	// Seed drives all randomness; runs are reproducible per seed. Zero
	// means 42, the suite default, matching the CLI.
	Seed int64
	// Workers bounds the engines' channel-stepping worker pool; zero means
	// GOMAXPROCS. Results are bit-identical for every value.
	Workers int
}

// IDs returns every experiment identifier in the suite's presentation
// order: the Table II/III catalogs first, then the figures in paper
// order, then the microbenchmarks and the mode-sensitive timeline.
func IDs() []string {
	return experiments.IDs()
}

// Run executes one experiment by ID (see IDs).
func Run(id string, o Options) (*Result, error) {
	runner, ok := experiments.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("paper: unknown experiment %q", id)
	}
	if o.Mode == 0 {
		o.Mode = simulate.ClientServer
	}
	if o.Scale == 0 {
		o.Scale = 2
	}
	esc, err := scenario(o)
	if err != nil {
		return nil, err
	}
	return runner(esc)
}

// scenario maps the public options onto the stack scenario
// through the canonical mode mapping (internal/modes): P2P holds the
// bootstrap rental statically, CloudAssisted provisions dynamically.
// Experiments that pin their own modes reset both fields (see
// experiments.pinMode), so the setting only reaches the mode-sensitive
// entries.
func scenario(o Options) (stack.Scenario, error) {
	mode, static, err := modes.Engine(o.Mode)
	if err != nil {
		return stack.Scenario{}, fmt.Errorf("paper: %w", err)
	}
	esc := stack.DefaultScenario(mode, o.Scale)
	esc.Fidelity = o.Fidelity
	esc.Policy = o.Policy
	esc.Pricing = o.Pricing
	esc.Source = o.Source
	esc.Faults = o.Faults.Clone()
	if o.Hours != 0 {
		esc.Hours = o.Hours
	}
	if o.Seed != 0 {
		esc.Seed = o.Seed
	}
	esc.Workers = o.Workers
	esc.StaticProvisioning = static
	return esc, nil
}
