package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/pkg/simulate"
)

// TestDriversDecideAlike runs one day through both run drivers — the
// figure harness (RunTimeline) and the public simulate.Scenario.Run — and
// requires the same provisioning decisions, across modes, pricing plans
// and engines.
//
// Dollars are held to 1e-12 relative rather than bit-identity: Run
// commits the cloud's billing accrual at every sample, the harness once
// an hour, and float addition is not associative, so interval costs and
// the run's totals differ in the last bits (under spot pricing, in a few
// records). Everything else is exact.
func TestDriversDecideAlike(t *testing.T) {
	pricings := map[string]cloud.PricingPlan{"on-demand": {}, "spot": cloud.SpotPricing()}
	for _, mode := range []modes.Mode{modes.ClientServer, modes.CloudAssisted} {
		for _, pricingName := range []string{"on-demand", "spot"} {
			for _, fidelity := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
				name := fmt.Sprintf("%v/%s/%v", mode, pricingName, fidelity)
				t.Run(name, func(t *testing.T) {
					sc := stack.DefaultSpec(mode, 1)
					sc.Pricing = pricings[pricingName]
					sc.Fidelity = fidelity
					tl, err := RunTimeline(sc)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := simulate.Scenario{Spec: sc}.Run(context.Background(), simulate.KeepHistory())
					if err != nil {
						t.Fatal(err)
					}
					compareDrivers(t, tl, rep)
				})
			}
		}
	}
}

func compareDrivers(t *testing.T, tl *Timeline, rep *simulate.Report) {
	t.Helper()
	if len(tl.Records) != 25 || len(rep.Records) != len(tl.Records) {
		t.Fatalf("records: harness %d, Run %d; want the bootstrap and 24 hourly rounds", len(tl.Records), len(rep.Records))
	}
	for i := range tl.Records {
		a, b := tl.Records[i], rep.Records[i]
		if !closeTotals(a.Cost, b.Cost) {
			t.Errorf("record %d: cost %+v vs %+v", i, a.Cost, b.Cost)
		}
		a.Cost, b.Cost = cloud.LedgerTotals{}, cloud.LedgerTotals{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("record %d differs beyond its cost:\nharness %+v\nRun     %+v", i, a, b)
		}
	}
	if tl.MeanQuality != rep.MeanQuality {
		t.Errorf("mean quality: harness %v, Run %v", tl.MeanQuality, rep.MeanQuality)
	}
	if !closeFloat(tl.VMCostTotal, rep.VMCostTotal) || !closeFloat(tl.StorageCostTotal, rep.StorageCostTotal) {
		t.Errorf("cost totals: harness %v/%v, Run %v/%v", tl.VMCostTotal, tl.StorageCostTotal, rep.VMCostTotal, rep.StorageCostTotal)
	}
	if !closeTotals(tl.Bill, rep.Bill) {
		t.Errorf("bill: harness %+v, Run %+v", tl.Bill, rep.Bill)
	}
}

// closeFloat reports whether a and b agree to 1e-12 relative.
func closeFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// closeTotals compares two bills field by field: dollars and hours to
// 1e-12 relative, counts exactly.
func closeTotals(a, b cloud.LedgerTotals) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if !closeFloat(fa.Float(), fb.Float()) {
				return false
			}
		} else if fa.Int() != fb.Int() {
			return false
		}
	}
	return true
}
