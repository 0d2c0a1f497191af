package geo

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// extraMarks returns 40 ascending extra stops in [0, end). The event
// engine takes them at any time. The fluid engine takes a partial step at
// every stop and then steps on from it, so a stop off its step grid moves
// the fluid state, and with it the viewer counts a failover bills. Its
// marks therefore lie on a 150 s grid (a multiple of the step) and in the
// last three quarters of an hour: there the grid is anchored at a whole
// sample stop, while the boot-latency barrier 25 s after a scale-up
// re-anchors it for the hour's first quarter.
func extraMarks(rng *rand.Rand, fid modes.Fidelity, end float64) []float64 {
	marks := make([]float64, 0, 40)
	for len(marks) < cap(marks) {
		t := rng.Float64() * end
		if fid == modes.FidelityFluid {
			if t = math.Floor(t/150) * 150; math.Mod(t, 3600) < 900 {
				continue
			}
		}
		marks = append(marks, t)
	}
	slices.Sort(marks)
	return marks
}

// readBills reads every cloud's costs and bill at a random half of the
// stops, at the stop and an hour past it.
func readBills(rng *rand.Rand, clouds []*cloud.Cloud, now float64) {
	if rng.IntN(2) == 0 {
		return
	}
	for _, cl := range clouds {
		for _, at := range []float64{now, now + rng.Float64()*3600} {
			cl.Costs(at)
			cl.Bill(at)
		}
	}
}

// singleRun is every dollar a single-region run reports: each interval's
// cost, the catalog-price costs and the bill at the end.
type singleRun struct {
	Intervals   []cloud.LedgerTotals
	VM, Storage float64
	Bill        cloud.LedgerTotals
}

func runSingle(t *testing.T, sc stack.Spec, marks []float64, rng *rand.Rand) singleRun {
	t.Helper()
	var out singleRun
	sys, err := stack.Build(stack.Scenario{Spec: sc, OnInterval: func(rec core.IntervalRecord) {
		out.Intervals = append(out.Intervals, rec.Cost)
	}}, stack.RegionID{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.Run(context.Background(), []*stack.System{sys}, marks, func(stop stack.Stop) {
		if rng != nil {
			readBills(rng, []*cloud.Cloud{sys.Cloud}, stop.Time)
		}
	}); err != nil {
		t.Fatal(err)
	}
	now := sys.Sim.Now()
	out.VM, out.Storage = sys.Cloud.Costs(now)
	out.Bill = sys.Cloud.Bill(now)
	return out
}

// geoRun is every dollar a deployment reports: each region's costs and
// bill, and the totals.
type geoRun struct {
	Regions     []regionDollars
	VM, Storage float64
}

type regionDollars struct {
	VM, Storage float64
	Bill        cloud.LedgerTotals
}

func runGeo(t *testing.T, sc stack.Spec, marks []float64, rng *rand.Rand) geoRun {
	t.Helper()
	d, err := New(sc, DefaultRegions())
	if err != nil {
		t.Fatal(err)
	}
	var clouds []*cloud.Cloud
	for _, r := range d.regions {
		clouds = append(clouds, r.Cloud)
	}
	if err := d.Run(context.Background(), marks, func(stop stack.Stop) {
		if rng != nil {
			readBills(rng, clouds, stop.Time)
		}
	}); err != nil {
		t.Fatal(err)
	}
	regions, vm, storage := d.Report()
	out := geoRun{VM: vm, Storage: storage}
	for _, r := range regions {
		out.Regions = append(out.Regions, regionDollars{r.VMCost, r.StorageCost, r.Bill})
	}
	return out
}

// TestBillIgnoresMarksAndReads is the bill's metamorphic check. Extra
// stops in the run loop and reads of the bill between them change no
// rental, so they must move no dollar: every record's interval cost, the
// costs and the bill at the end are bit-identical to the plain run's, on
// both engines, for a single-region stack on the on-demand plan and on
// the spot plan with a preemption, and for a three-region deployment
// through an outage with its failover transfer charges.
func TestBillIgnoresMarksAndReads(t *testing.T) {
	for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		base := stack.DefaultSpec(modes.CloudAssisted, 1)
		base.Fidelity = fid
		base.Hours = 6
		end := base.Hours * 3600
		rng := rand.New(rand.NewPCG(uint64(fid)+1, 36))

		for _, pricing := range []cloud.PricingPlan{cloud.OnDemandPricing(), cloud.SpotPricing()} {
			t.Run(fmt.Sprintf("%v/single/%s", fid, pricing.DisplayName()), func(t *testing.T) {
				sc := base
				sc.Pricing = pricing
				if pricing.SpotFraction > 0 {
					sc.Faults = &fault.Schedule{Preemptions: []fault.SpotPreemption{{At: 4*3600 + 450, Fraction: 0.5}}}
				}
				plain := runSingle(t, sc, nil, nil)
				marked := runSingle(t, sc, extraMarks(rng, fid, end), rng)
				if !reflect.DeepEqual(plain, marked) {
					t.Errorf("marks and reads moved the bill:\nplain  %+v\nmarked %+v", plain.Bill, marked.Bill)
				}
			})
		}
		t.Run(fmt.Sprintf("%v/geo-outage", fid), func(t *testing.T) {
			sc := base
			sc.Faults = &fault.Schedule{Outages: []fault.RegionOutage{{Start: 2 * 3600, Duration: 1.5 * 3600}}}
			plain := runGeo(t, sc, nil, nil)
			marked := runGeo(t, sc, extraMarks(rng, fid, end), rng)
			if !reflect.DeepEqual(plain, marked) {
				t.Errorf("marks and reads moved the deployment's report:\nplain  %+v\nmarked %+v", plain, marked)
			}
			if plain.Regions[1].Bill.TransferUSD <= 0 {
				t.Error("the outage charged no failover transfer; the leg does not reach the failover path")
			}
		})
	}
}
