package experiments

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// geoGoldens are the Regional summaries at DefaultSpec(CloudAssisted, 1), seed
// 42, captured at full precision from the deployment builder that
// predates building each region through the single-region stack. The
// "spot" leg adds SpotPricing and the preempt-peak schedule, which pins
// the per-region fault seed and the region-scoped fault path. Any drift
// is a behaviour change in how geo assembles its regions. The fluid legs
// were regenerated twice since: when the fluid kernel's update became
// exact in dt and its step rose from 1 s to 3 s, and when the peer
// budget moved to the step's mean viewer stock and the step rose to
// 10 s (the qualities moved in their last bits). Every dollar field of
// both engines and the fluid qualities moved in their last bits (at most
// 1.6e-15 relative) when the deployment moved onto the one run loop
// (stack.Run): it commits each region's billing at every sample and
// whole hour, and float addition is not associative. No decision moved.
// They moved once more, again only in their last bits, when the cloud
// stopped accruing at commits and began pricing its allocation integral
// when read: the dollars no longer depend on how often anyone reads or
// marks them. The event legs moved when the viewers' VCR-jump timers
// were superposed into one jump clock per channel, which draws a
// different random stream from the same law.
var geoGoldens = map[modes.Fidelity]map[string]map[string]float64{
	modes.FidelityEvent: {
		"default": {
			"bill_on_demand_usd":     393.75000000000006,
			"bill_reserved_usd":      0,
			"bill_spot_usd":          0,
			"bill_total_usd":         393.75143856000005,
			"bill_transfer_usd":      0,
			"bill_upfront_usd":       0,
			"interruptions":          0,
			"quality_apac":           1,
			"quality_eu":             1,
			"quality_na":             1,
			"storage_cost_total_usd": 0.0014385600000000011,
			"vm_cost_apac_usd":       130.05000000000001,
			"vm_cost_eu_usd":         124.65000000000001,
			"vm_cost_na_usd":         139.05000000000001,
			"vm_cost_total_usd":      393.75000000000006,
		},
		"spot": {
			"bill_on_demand_usd":     116.77500000000001,
			"bill_reserved_usd":      0,
			"bill_spot_usd":          80.459999999999994,
			"bill_total_usd":         197.23643856000001,
			"bill_transfer_usd":      0,
			"bill_upfront_usd":       0,
			"interruptions":          15,
			"quality_apac":           1,
			"quality_eu":             1,
			"quality_na":             1,
			"storage_cost_total_usd": 0.0014385600000000011,
			"vm_cost_apac_usd":       129.15000000000001,
			"vm_cost_eu_usd":         121.05,
			"vm_cost_na_usd":         134.77500000000001,
			"vm_cost_total_usd":      384.97500000000002,
		},
	},
	modes.FidelityFluid: {
		"default": {
			"bill_on_demand_usd":     395.54999999999995,
			"bill_reserved_usd":      0,
			"bill_spot_usd":          0,
			"bill_total_usd":         395.55143855999995,
			"bill_transfer_usd":      0,
			"bill_upfront_usd":       0,
			"interruptions":          0,
			"quality_apac":           0.99999999999999833,
			"quality_eu":             0.99999999999999856,
			"quality_na":             0.99999999999999811,
			"storage_cost_total_usd": 0.0014385600000000011,
			"vm_cost_apac_usd":       131.40000000000001,
			"vm_cost_eu_usd":         124.2,
			"vm_cost_na_usd":         139.94999999999999,
			"vm_cost_total_usd":      395.54999999999995,
		},
		"spot": {
			"bill_on_demand_usd":     117,
			"bill_reserved_usd":      0,
			"bill_spot_usd":          80.055000000000007,
			"bill_total_usd":         197.05643856,
			"bill_transfer_usd":      0,
			"bill_upfront_usd":       0,
			"interruptions":          15,
			"quality_apac":           0.99999999999999833,
			"quality_eu":             0.99999999999999856,
			"quality_na":             0.99999999999999867,
			"storage_cost_total_usd": 0.0014385600000000011,
			"vm_cost_apac_usd":       129.59999999999999,
			"vm_cost_eu_usd":         119.47499999999999,
			"vm_cost_na_usd":         134.77500000000001,
			"vm_cost_total_usd":      383.85000000000002,
		},
	},
}

// TestRegionalGoldens runs Regional on both fidelities, fault-free on
// the default plan and under spot pricing with the preempt-peak
// schedule, and requires the captured summaries bit for bit.
func TestRegionalGoldens(t *testing.T) {
	for fid, legs := range geoGoldens {
		for leg, want := range legs {
			sc := stack.DefaultSpec(modes.CloudAssisted, 1)
			sc.Fidelity = fid
			if leg == "spot" {
				sc.Pricing = cloud.SpotPricing()
				sc.Faults = fault.Presets()["preempt-peak"]
			}
			res, err := Regional(sc)
			if err != nil {
				t.Fatalf("%v/%s: %v", fid, leg, err)
			}
			if !reflect.DeepEqual(res.Summary, want) {
				for key, wantV := range want {
					if got := res.Summary[key]; got != wantV {
						t.Errorf("%v/%s %s = %.17g, want %.17g", fid, leg, key, got, wantV)
					}
				}
				if len(res.Summary) != len(want) {
					t.Errorf("%v/%s: %d summary keys, want %d", fid, leg, len(res.Summary), len(want))
				}
			}
		}
	}
}

// TestResilienceOutageGolden pins the geo-failover leg of Resilience on
// both fidelities: the event leg's summary at full precision and every
// table row. The scenario carries SpotPricing on purpose: the outage leg
// bills at the zero-value plan whatever the scenario's pricing is.
// outage_total_usd moved in its last bits with the regional goldens,
// twice: with the one run loop, and with the read-time bill. The event
// rows and the summary moved with the per-channel jump clock, and again
// when the share factor became a function of time: na's viewers come
// back after its outage (0 → 89 at the end of the run).
func TestResilienceOutageGolden(t *testing.T) {
	sc := stack.DefaultSpec(modes.CloudAssisted, 1)
	sc.Pricing = cloud.SpotPricing()
	summary := map[string]float64{}
	tbl, err := resilienceOutage(sc, fault.Presets()["outage-flash"], summary)
	if err != nil {
		t.Fatal(err)
	}
	wantSummary := map[string]float64{
		"outage_mean_region_quality": 1,
		"outage_total_usd":           392.95596981,
		"outage_transfer_usd":        0.10453125,
	}
	if !reflect.DeepEqual(summary, wantSummary) {
		t.Errorf("outage summary = %v, want %v", summary, wantSummary)
	}
	wantRows := [][]string{
		{"event", "na", "89", "1", "0.04434", "126.5"},
		{"event", "eu", "54", "1", "0.03611", "131.9"},
		{"event", "apac", "25", "1", "0.02407", "134.6"},
		{"fluid", "na", "83", "1", "0.04153", "126.5"},
		{"fluid", "eu", "50", "1", "0.03139", "131.9"},
		{"fluid", "apac", "33", "1", "0.02093", "134.6"},
	}
	if !reflect.DeepEqual(tbl.Rows, wantRows) {
		t.Errorf("outage rows = %q, want %q", tbl.Rows, wantRows)
	}
}

// TestRegionalTableIgnoresMarks: extra stops in the run loop move no
// number of the regional experiment. With an outage failing the largest
// region over mid-run, a run with 400 random extra marks prints the
// per-region table, vm_cost_usd included, byte for byte as the plain run
// does, and its summary is bit-identical. (TestBillIgnoresMarksAndReads
// in internal/geo covers the fluid engine, whose marks must respect its
// step grid.)
func TestRegionalTableIgnoresMarks(t *testing.T) {
	sc := stack.DefaultSpec(modes.CloudAssisted, 1)
	sc.Faults = fault.Presets()["outage-flash"]
	rng := rand.New(rand.NewPCG(2, 32))
	marks := make([]float64, 400)
	for i := range marks {
		marks[i] = rng.Float64() * sc.Hours * 3600
	}
	slices.Sort(marks)
	render := func(marks []float64) (string, map[string]float64) {
		t.Helper()
		res, err := regional(sc, marks)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Tables[0].Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), res.Summary
	}
	plainTable, plainSummary := render(nil)
	markedTable, markedSummary := render(marks)
	if markedTable != plainTable {
		t.Errorf("extra marks moved the regional table:\n%s\nplain run:\n%s", markedTable, plainTable)
	}
	if !reflect.DeepEqual(markedSummary, plainSummary) {
		t.Errorf("extra marks moved the summary:\n%v\nplain run:\n%v", markedSummary, plainSummary)
	}
	if plainSummary["bill_transfer_usd"] <= 0 {
		t.Error("no failover transfer billed; the outage does not reach the failover path")
	}
}
