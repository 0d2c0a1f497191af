package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/pkg/simulate"
)

// TestDriversDecideAlike runs one day through both callers of the run
// loop — the figure harness (RunTimeline) and the public
// simulate.Scenario.Run — and requires bit-identical records, quality and
// dollars, across modes, pricing plans and engines. Two more cases use a
// sampling period that does not divide the hour: the loop then also
// stops on whole hours, so the harness keeps one Hourly row per hour
// while Run snapshots only the 86 samples and the end of the day.
func TestDriversDecideAlike(t *testing.T) {
	pricings := map[string]cloud.PricingPlan{"on-demand": {}, "spot": cloud.SpotPricing()}
	for _, mode := range []modes.Mode{modes.ClientServer, modes.CloudAssisted} {
		for _, pricingName := range []string{"on-demand", "spot"} {
			for _, fidelity := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
				sc := stack.DefaultSpec(mode, 1)
				sc.Pricing = pricings[pricingName]
				sc.Fidelity = fidelity
				t.Run(fmt.Sprintf("%v/%s/%v", mode, pricingName, fidelity), func(t *testing.T) {
					runBothDrivers(t, sc, 96)
				})
			}
		}
	}
	for _, fidelity := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		sc := stack.DefaultSpec(modes.CloudAssisted, 1)
		sc.Fidelity = fidelity
		sc.SampleSeconds = 1000
		t.Run(fmt.Sprintf("%v/on-demand/%v/sample-1000s", sc.Mode, fidelity), func(t *testing.T) {
			runBothDrivers(t, sc, 87)
		})
	}
}

// runBothDrivers runs a day of sc through the harness and through Run,
// and requires the two to agree exactly, with one Hourly row per hour and
// the given number of snapshots, the last at the end of the day.
func runBothDrivers(t *testing.T, sc stack.Spec, snapshots int) {
	t.Helper()
	tl, err := RunTimeline(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simulate.Scenario{Spec: sc}.Run(context.Background(), simulate.KeepHistory())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Records) != 25 || len(rep.Records) != len(tl.Records) {
		t.Fatalf("records: harness %d, Run %d; want the bootstrap and 24 hourly rounds", len(tl.Records), len(rep.Records))
	}
	for i := range tl.Records {
		if !reflect.DeepEqual(tl.Records[i], rep.Records[i]) {
			t.Errorf("record %d differs:\nharness %+v\nRun     %+v", i, tl.Records[i], rep.Records[i])
		}
	}
	if tl.MeanQuality != rep.MeanQuality {
		t.Errorf("mean quality: harness %v, Run %v", tl.MeanQuality, rep.MeanQuality)
	}
	if tl.VMCostTotal != rep.VMCostTotal || tl.StorageCostTotal != rep.StorageCostTotal {
		t.Errorf("cost totals: harness %v/%v, Run %v/%v", tl.VMCostTotal, tl.StorageCostTotal, rep.VMCostTotal, rep.StorageCostTotal)
	}
	if tl.Bill != rep.Bill {
		t.Errorf("bill: harness %+v, Run %+v", tl.Bill, rep.Bill)
	}
	if len(tl.Hourlies) != 24 {
		t.Errorf("harness hourlies = %d, want 24", len(tl.Hourlies))
	}
	if len(tl.Snapshots) != snapshots || len(rep.Snapshots) != snapshots {
		t.Fatalf("snapshots: harness %d, Run %d; want %d", len(tl.Snapshots), len(rep.Snapshots), snapshots)
	}
	if last := rep.Snapshots[snapshots-1].Time; last != 86400 {
		t.Errorf("last snapshot at %v s, want the end of the day", last)
	}
}
