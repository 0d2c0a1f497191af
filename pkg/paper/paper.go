// Package paper regenerates the tables and figures of the evaluation
// section of Wu et al., "CloudMedia: When Cloud on Demand Meets Video on
// Demand" (ICDCS 2011): the Table II/III catalogs, the Fig. 4–11
// simulation studies, and the Sec. VI-C microbenchmarks.
//
//	sc := simulate.Default(simulate.CloudAssisted, 2)
//	sc.Hours = 12
//	res, err := paper.Run("fig10", sc)
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

// IDs returns every experiment identifier in the suite's presentation
// order: the Table II/III catalogs first, then the figures in paper
// order, then the microbenchmarks and the mode-sensitive timeline.
func IDs() []string {
	reg := experiments.Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// Run executes one experiment by ID (see IDs) on a copy of the
// scenario. Every simulation experiment honours the scenario's knobs
// except the ones it compares: the comparative figures (fig4, fig5,
// fig10, …) run the modes they compare, costfrontier its policies and
// pricing plans, resilience its fault schedules, and regional its own
// per-region demand. The experiments that always provision dynamically
// (regional, costfrontier, resilience, and the figures' P2P side) run a
// p2p scenario as cloud-assisted. A scenario that fails Validate is
// rejected with its error, which wraps simulate.ErrInvalidScenario.
func Run(id string, sc simulate.Scenario) (*Result, error) {
	for _, e := range experiments.Registry() {
		if e.ID != id {
			continue
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		return e.Run(sc.Clone().Spec)
	}
	return nil, fmt.Errorf("paper: unknown experiment %q", id)
}
