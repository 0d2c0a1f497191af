package cloud

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// oracleCloud is a reference copy of the Cloud's VM side in its most
// direct form: one allocation path per cluster, every change recorded as
// a (time, VMs) step, spot kills resolved per cluster as the bill prices
// them, and a bill that integrates each path segment by segment when it
// is read. Every mutation in the oracle tests happens on a whole second,
// so the closed VM-second integrals are exact integers, and the Cloud
// must reproduce the oracle's dollars exactly (TestAllocationMatchesOracle,
// FuzzAllocation).
type oracleCloud struct {
	specs []VMClusterSpec
	plan  PricingPlan

	reserved []int
	paths    [][]oracleStep

	interruptions int
}

// oracleStep is one point of a cluster's allocation path: from at on,
// vms are rented.
type oracleStep struct {
	at  float64
	vms int
}

func newOracleCloud(specs []VMClusterSpec, plan PricingPlan) *oracleCloud {
	o := &oracleCloud{specs: specs, plan: plan}
	for _, s := range specs {
		o.reserved = append(o.reserved, plan.reservedVMs(s.MaxVMs))
		o.paths = append(o.paths, []oracleStep{{at: 0, vms: 0}})
	}
	return o
}

func (o *oracleCloud) alloc(i int) int {
	path := o.paths[i]
	return path[len(path)-1].vms
}

func (o *oracleCloud) setVMs(now float64, i, target int) {
	if target != o.alloc(i) {
		o.paths[i] = append(o.paths[i], oracleStep{at: now, vms: target})
	}
}

func (o *oracleCloud) preemptSpot(now, fraction float64) (int, float64) {
	if o.plan.SpotFraction <= 0 {
		return 0, 0
	}
	killed, before := 0, 0
	for i := range o.specs {
		n := o.alloc(i)
		before += n
		spot := o.plan.spotVMs(n - o.reserved[i])
		kill := min(int(float64(spot)*fraction+0.5+1e-9), spot)
		o.setVMs(now, i, n-kill)
		killed += kill
	}
	lost := 0.0
	if before > 0 {
		lost = float64(killed) / float64(before)
	}
	o.interruptions++
	return killed, lost
}

// seconds integrates cluster i's path through t: all rented VMs, and the
// spot and on-demand tiers of the elastic VMs above the reserved count.
func (o *oracleCloud) seconds(i int, t float64) (all, spot, onDemand float64) {
	path := o.paths[i]
	for k, step := range path {
		end := t
		if k+1 < len(path) {
			end = path[k+1].at
		}
		dt := end - step.at
		all += float64(step.vms) * dt
		if elastic := step.vms - o.reserved[i]; elastic > 0 {
			s := o.plan.spotVMs(elastic)
			spot += float64(s) * dt
			onDemand += float64(elastic-s) * dt
		}
	}
	return all, spot, onDemand
}

// costs prices the integrals at catalog prices, as Cloud.Costs does.
func (o *oracleCloud) costs(t float64) float64 {
	var vm float64
	for i, s := range o.specs {
		all, _, _ := o.seconds(i, t)
		vm += all * s.PricePerHour / 3600
	}
	return vm
}

// bill prices the integrals per tier, as Cloud.Bill does, with the
// upfront fee of every term begun by t.
func (o *oracleCloud) bill(t float64) LedgerTotals {
	p := o.plan
	b := LedgerTotals{Interruptions: o.interruptions}
	var reserved int
	var spotSec, onDemandSec, upfrontPerTerm float64
	for i, s := range o.specs {
		_, spot, onDemand := o.seconds(i, t)
		reserved += o.reserved[i]
		spotSec += spot
		onDemandSec += onDemand
		b.ReservedUSD += float64(o.reserved[i]) * t * s.PricePerHour * p.ReservedRate / 3600
		b.SpotUSD += spot * s.PricePerHour * p.spotRate() / 3600
		b.OnDemandUSD += onDemand * s.PricePerHour * p.onDemandRate() / 3600
		upfrontPerTerm += float64(o.reserved[i]) * s.PricePerHour * p.onDemandRate() * p.TermHours * p.UpfrontFraction
	}
	b.ReservedVMHours = float64(reserved) * t / 3600
	b.SpotVMHours = spotSec / 3600
	b.OnDemandVMHours = onDemandSec / 3600
	if upfrontPerTerm > 0 {
		terms := 1
		for float64(terms)*p.TermHours*3600 < t {
			terms++
		}
		b.UpfrontUSD = upfrontPerTerm * float64(terms)
	}
	return b
}

var oraclePlans = []PricingPlan{OnDemandPricing(), SpotPricing(), ReservedPricing()}

// oracleClusters are Table II plus one larger cluster.
func oracleClusters() []VMClusterSpec {
	return append(DefaultVMClusters(), VMClusterSpec{Name: "large", Utility: 0.9, PricePerHour: 0.6, MaxVMs: 5000})
}

// checkAllocation drives a Cloud and an oracleCloud under plan through up
// to ops operations at non-decreasing whole-second times, chosen by draw
// (which returns a value in [0, n)), and fails on the first disagreement:
// the preemption results, the VM counts, Costs and the bill are compared
// after every operation. A twin Cloud gets every mutation but none of the
// reads, so a read that changed state would show as a disagreement in the
// twin's preemption results or in its bill at the end. more reports
// whether draw has input left.
func checkAllocation(t testing.TB, plan PricingPlan, draw func(n int) int, more func() bool, ops int) {
	t.Helper()
	specs := oracleClusters()
	c, err := New(specs, nil, WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(specs, nil, WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracleCloud(specs, plan)
	setVMs := func(what string, now float64, i, target int) {
		t.Helper()
		if err := c.SetVMs(now, specs[i].Name, target); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := twin.SetVMs(now, specs[i].Name, target); err != nil {
			t.Fatalf("%s on the twin: %v", what, err)
		}
		o.setVMs(now, i, target)
	}
	now, i := 0.0, 0
	for op := 0; op < ops && more(); op++ {
		// Advance the clock: zero steps give several operations at one
		// instant, hour steps cross reservation-term and hour boundaries.
		switch draw(4) {
		case 1:
			now += float64(draw(100))
		case 2:
			now += float64(draw(7200))
		case 3:
			now += 3600
		}
		// Stay on one cluster for runs of operations, so scale-ups,
		// partial releases and preemptions interleave on one allocation.
		if draw(4) == 0 {
			i = draw(len(specs))
		}
		name, maxVMs, alloc := specs[i].Name, specs[i].MaxVMs, o.alloc(i)
		var what string
		switch draw(5) {
		case 0:
			target := draw(maxVMs + 1)
			what = fmt.Sprintf("SetVMs(%v, %s, %d)", now, name, target)
			setVMs(what, now, i, target)
		case 1:
			target := min(alloc+1+draw(maxVMs/4+1), maxVMs)
			what = fmt.Sprintf("SetVMs(%v, %s, %d) up", now, name, target)
			setVMs(what, now, i, target)
		case 2:
			target := max(alloc-1-draw(alloc/4+1), 0)
			what = fmt.Sprintf("SetVMs(%v, %s, %d) down", now, name, target)
			setVMs(what, now, i, target)
		case 3:
			fraction := []float64{0, 0.25, 0.5, 1, float64(draw(101)) / 100}[draw(5)]
			what = fmt.Sprintf("PreemptSpot(%v, %v)", now, fraction)
			killed, lost, err := c.PreemptSpot(now, fraction)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if wantKilled, wantLost := o.preemptSpot(now, fraction); killed != wantKilled || lost != wantLost {
				t.Fatalf("%s = (%d, %v), oracle (%d, %v)", what, killed, lost, wantKilled, wantLost)
			}
			if twinKilled, twinLost, _ := twin.PreemptSpot(now, fraction); twinKilled != killed || twinLost != lost {
				t.Fatalf("%s = (%d, %v), unread twin (%d, %v)", what, killed, lost, twinKilled, twinLost)
			}
		case 4:
			// Read at a fractional time up to two hours ahead: a read
			// that committed the open segment there would cut the
			// integral off the whole-second grid, and bill the next
			// mutation at now from the wrong instant.
			at := now + float64(draw(7200))/7
			what = fmt.Sprintf("read(%v)", at)
			vm, _ := c.Costs(at)
			bill := c.Bill(at)
			if again, _ := c.Costs(at); again != vm {
				t.Fatalf("after op %d %s: Costs read %v, then %v", op, what, vm, again)
			}
			if again := c.Bill(at); again != bill {
				t.Fatalf("after op %d %s: bill read %+v, then %+v", op, what, bill, again)
			}
			if want := o.costs(at); vm != want {
				t.Fatalf("after op %d %s: Costs = %v, oracle %v", op, what, vm, want)
			}
			if want := o.bill(at); bill != want {
				t.Fatalf("after op %d %s: bill %+v, oracle %+v", op, what, bill, want)
			}
		}
		for k, s := range specs {
			if got, _ := c.AllocatedVMs(s.Name); got != o.alloc(k) {
				t.Fatalf("after op %d %s: AllocatedVMs(%s) = %d, oracle %d", op, what, s.Name, got, o.alloc(k))
			}
		}
		if vm, storage := c.Costs(now); vm != o.costs(now) || storage != 0 {
			t.Fatalf("after op %d %s: Costs = (%v, %v), oracle (%v, 0)", op, what, vm, storage, o.costs(now))
		}
		if got, want := c.Bill(now), o.bill(now); got != want {
			t.Fatalf("after op %d %s: bill %+v, oracle %+v", op, what, got, want)
		}
	}
	if got, want := twin.Bill(now), c.Bill(now); got != want {
		t.Fatalf("unread twin's bill %+v, read cloud's %+v", got, want)
	}
}

// TestAllocationMatchesOracle runs 6 × 450 seeded random operations —
// every pricing plan, twice — against the oracle.
func TestAllocationMatchesOracle(t *testing.T) {
	for _, plan := range oraclePlans {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", plan.DisplayName(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0))
				checkAllocation(t, plan, rng.IntN, func() bool { return true }, 450)
			})
		}
	}
}

// FuzzAllocation reads a pricing plan and an operation sequence from the
// fuzzer's bytes and holds the Cloud to the oracle.
func FuzzAllocation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 3, 40, 0, 0, 6, 1, 0, 7})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte{7, 2, 0, 3, 1, 200, 9, 0, 3, 2, 4, 255, 255, 1, 0, 6, 3, 0, 2, 3, 0, 3, 0, 7, 4, 1, 4, 2})
	// Long pseudo-random inputs reach long runs of scale-ups, partial
	// releases and preemptions on one cluster, which short hand-written
	// ones rarely do.
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// draw consumes one byte, or two when n needs them; an exhausted
		// input draws 0 and ends the run.
		draw := func(n int) int {
			v := 0
			for k := 0; k < 2 && len(data) > 0; k++ {
				v = v<<8 | int(data[0])
				data = data[1:]
				if n <= 256 {
					break
				}
			}
			return v % n
		}
		plan := oraclePlans[draw(len(oraclePlans))]
		checkAllocation(t, plan, draw, func() bool { return len(data) > 0 }, 1024)
	})
}
