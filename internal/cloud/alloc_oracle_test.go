package cloud

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// oracleCloud is a reference copy of the Cloud's VM side in its most
// direct form: one allocation per cluster, spot kills resolved per
// cluster as the ledger bills them, and billing that repeats the Cloud's
// arithmetic over the oracle's own allocations, into a ledger of its own.
// The Cloud must reproduce it exactly (TestAllocationMatchesOracle,
// FuzzAllocation).
type oracleCloud struct {
	specs  []VMClusterSpec
	plan   PricingPlan
	ledger *Ledger

	alloc []int

	lastBilled float64
	vmCost     float64
}

func newOracleCloud(specs []VMClusterSpec, plan PricingPlan) *oracleCloud {
	return &oracleCloud{
		specs:  specs,
		plan:   plan,
		ledger: newLedger(plan, specs),
		alloc:  make([]int, len(specs)),
	}
}

func (o *oracleCloud) accrue(now float64) {
	if now <= o.lastBilled {
		return
	}
	hours := (now - o.lastBilled) / 3600
	vms := make([]vmUsage, len(o.specs))
	for i, s := range o.specs {
		o.vmCost += float64(o.alloc[i]) * s.PricePerHour * hours
		vms[i] = vmUsage{name: s.Name, price: s.PricePerHour, allocated: o.alloc[i]}
	}
	o.ledger.accrue(o.lastBilled, now, vms, nil)
	o.lastBilled = now
}

func (o *oracleCloud) setVMs(now float64, i, target int) {
	o.accrue(now)
	o.alloc[i] = target
}

func (o *oracleCloud) preemptSpot(now, fraction float64) (int, float64) {
	if o.plan.SpotFraction <= 0 {
		return 0, 0
	}
	o.accrue(now)
	killed, before := 0, 0
	for i, s := range o.specs {
		before += o.alloc[i]
		spot := o.plan.spotVMs(o.alloc[i] - o.ledger.ReservedVMs(s.Name))
		kill := min(int(float64(spot)*fraction+0.5+1e-9), spot)
		o.alloc[i] -= kill
		killed += kill
	}
	lost := 0.0
	if before > 0 {
		lost = float64(killed) / float64(before)
	}
	o.ledger.RecordInterruption()
	return killed, lost
}

var oraclePlans = []PricingPlan{OnDemandPricing(), SpotPricing(), ReservedPricing()}

// oracleClusters are Table II plus one larger cluster.
func oracleClusters() []VMClusterSpec {
	return append(DefaultVMClusters(), VMClusterSpec{Name: "large", Utility: 0.9, PricePerHour: 0.6, MaxVMs: 5000})
}

// checkAllocation drives a Cloud and an oracleCloud under plan through up
// to ops operations at non-decreasing times, chosen by draw (which
// returns a value in [0, n)), and fails on the first disagreement: the
// preemption results, the VM counts, Costs and the ledger totals are
// compared after every operation. more reports whether draw has input
// left.
func checkAllocation(t testing.TB, plan PricingPlan, draw func(n int) int, more func() bool, ops int) {
	t.Helper()
	specs := oracleClusters()
	c, err := New(specs, nil, WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracleCloud(specs, plan)
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
		name, maxVMs := specs[i].Name, specs[i].MaxVMs
		var what string
		switch draw(5) {
		case 0:
			target := draw(maxVMs + 1)
			what = fmt.Sprintf("SetVMs(%v, %s, %d)", now, name, target)
			if err := c.SetVMs(now, name, target); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			o.setVMs(now, i, target)
		case 1:
			target := min(o.alloc[i]+1+draw(maxVMs/4+1), maxVMs)
			what = fmt.Sprintf("SetVMs(%v, %s, %d) up", now, name, target)
			if err := c.SetVMs(now, name, target); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			o.setVMs(now, i, target)
		case 2:
			target := max(o.alloc[i]-1-draw(o.alloc[i]/4+1), 0)
			what = fmt.Sprintf("SetVMs(%v, %s, %d) down", now, name, target)
			if err := c.SetVMs(now, name, target); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			o.setVMs(now, i, target)
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
		case 4:
			what = fmt.Sprintf("Advance(%v)", now)
			c.Advance(now)
			o.accrue(now)
		}
		for k, s := range specs {
			if got, _ := c.AllocatedVMs(s.Name); got != o.alloc[k] {
				t.Fatalf("after op %d %s: AllocatedVMs(%s) = %d, oracle %d", op, what, s.Name, got, o.alloc[k])
			}
		}
		if vm, storage := c.Costs(); vm != o.vmCost || storage != 0 {
			t.Fatalf("after op %d %s: Costs = (%v, %v), oracle (%v, 0)", op, what, vm, storage, o.vmCost)
		}
		if got, want := c.Ledger().Totals(), o.ledger.Totals(); got != want {
			t.Fatalf("after op %d %s: ledger totals %+v, oracle %+v", op, what, got, want)
		}
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
