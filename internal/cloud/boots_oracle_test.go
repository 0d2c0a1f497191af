package cloud

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// oracleCloud is a reference copy of the Cloud's VM side in its earlier,
// straightforward form: one ready time per booting VM, appended on every
// scale-up, sorted on every query, popped from the tail on every release,
// with the finished prefix retired after a query. Billing repeats the
// Cloud's arithmetic over the oracle's own allocations, into a ledger of
// its own. The batched boot ledger must reproduce it exactly
// (TestBootLedgerMatchesOracle, FuzzBootLedger).
type oracleCloud struct {
	specs  []VMClusterSpec
	boot   float64
	plan   PricingPlan
	ledger *Ledger

	alloc []int
	boots [][]float64

	lastBilled float64
	vmCost     float64
}

func newOracleCloud(specs []VMClusterSpec, boot float64, plan PricingPlan) *oracleCloud {
	return &oracleCloud{
		specs:  specs,
		boot:   boot,
		plan:   plan,
		ledger: newLedger(plan, specs),
		alloc:  make([]int, len(specs)),
		boots:  make([][]float64, len(specs)),
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

// release pops up to n booting VMs from the tail of the queue.
func (o *oracleCloud) release(i, n int) {
	for n > 0 && len(o.boots[i]) > 0 {
		o.boots[i] = o.boots[i][:len(o.boots[i])-1]
		n--
	}
}

func (o *oracleCloud) setVMs(now float64, i, target int) {
	o.accrue(now)
	if target > o.alloc[i] {
		ready := now + o.boot
		for k := o.alloc[i]; k < target; k++ {
			o.boots[i] = append(o.boots[i], ready)
		}
	} else {
		o.release(i, o.alloc[i]-target)
	}
	o.alloc[i] = target
}

func (o *oracleCloud) activeAt(now float64, i int) int {
	q := o.boots[i]
	sort.Float64s(q)
	booting := 0
	for k := len(q) - 1; k >= 0 && q[k] > now; k-- {
		booting++
	}
	o.boots[i] = append(q[:0], q[len(q)-booting:]...)
	return o.alloc[i] - booting
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
		o.release(i, kill)
		o.alloc[i] -= kill
		killed += kill
	}
	lost := 0.0
	if before > 0 {
		lost = float64(killed) / float64(before)
	}
	o.ledger.RecordInterruption(now, killed)
	return killed, lost
}

// bootLedgerConfig is one cloud set-up the oracle comparison runs under.
type bootLedgerConfig struct {
	boot float64
	plan PricingPlan
}

var (
	oracleBootLatencies = []float64{0, DefaultBootSeconds, 7.5, 3600}
	oraclePlans         = []PricingPlan{OnDemandPricing(), SpotPricing(), ReservedPricing()}
)

// oracleClusters are Table II plus one larger cluster, small enough that
// the per-VM oracle stays fast.
func oracleClusters() []VMClusterSpec {
	return append(DefaultVMClusters(), VMClusterSpec{Name: "large", Utility: 0.9, PricePerHour: 0.6, MaxVMs: 5000})
}

// checkBootLedger drives a Cloud and an oracleCloud through up to ops
// operations at non-decreasing times, chosen by draw (which returns a
// value in [0, n)), and fails on the first disagreement: every query
// result, the VM counts, Costs and the ledger totals are compared after
// every operation. more reports whether draw has input left.
func checkBootLedger(t testing.TB, cfg bootLedgerConfig, draw func(n int) int, more func() bool, ops int) {
	t.Helper()
	specs := oracleClusters()
	c, err := New(specs, nil, withBootLatency(cfg.boot), WithPricing(cfg.plan))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracleCloud(specs, cfg.boot, cfg.plan)
	now, i := 0.0, 0
	for op := 0; op < ops && more(); op++ {
		// Advance the clock. Zero steps give equal ready times; a step of
		// exactly the boot latency, or a jump to a pending ready time,
		// queries exactly at a ready boundary; a step of a fraction of the
		// latency leaves several batches booting at once.
		switch draw(8) {
		case 1:
			now += cfg.boot
		case 5, 6, 7:
			now += cfg.boot * float64(1+draw(7)) / 8
		case 2:
			now += float64(draw(100))
		case 3:
			var pending []float64
			for _, q := range o.boots {
				for _, r := range q {
					if r >= now {
						pending = append(pending, r)
					}
				}
			}
			if len(pending) > 0 {
				now = pending[draw(len(pending))]
			}
		case 4:
			now += float64(draw(7200))
		}
		// Stay on one cluster for runs of operations, so scale-ups,
		// partial releases and queries interleave on the same batches.
		if draw(4) == 0 {
			i = draw(len(specs))
		}
		name, maxVMs := specs[i].Name, specs[i].MaxVMs
		var what string
		switch draw(7) {
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
		case 5:
			what = fmt.Sprintf("ActiveVMs(%v, %s)", now, name)
			got, err := c.ActiveVMs(now, name)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := o.activeAt(now, i); got != want {
				t.Fatalf("%s = %d, oracle %d", what, got, want)
			}
		case 6:
			what = fmt.Sprintf("TotalActiveVMs(%v)", now)
			want := 0
			for k := range specs {
				want += o.activeAt(now, k)
			}
			if got := c.TotalActiveVMs(now); got != want {
				t.Fatalf("%s = %d, oracle %d", what, got, want)
			}
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

// TestBootLedgerMatchesOracle runs 24 × 450 seeded random operations —
// every boot latency (zero included) under every pricing plan, twice —
// against the per-VM oracle.
func TestBootLedgerMatchesOracle(t *testing.T) {
	for _, boot := range oracleBootLatencies {
		for _, plan := range oraclePlans {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("boot=%v/%s/seed=%d", boot, plan.DisplayName(), seed), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, uint64(boot)))
					checkBootLedger(t, bootLedgerConfig{boot: boot, plan: plan}, rng.IntN, func() bool { return true }, 450)
				})
			}
		}
	}
}

// FuzzBootLedger reads a cloud set-up and an operation sequence from the
// fuzzer's bytes and holds the batched boot ledger to the per-VM oracle.
func FuzzBootLedger(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 3, 40, 0, 0, 6, 1, 0, 7})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte{7, 2, 0, 3, 1, 200, 9, 0, 3, 2, 4, 255, 255, 1, 0, 6, 3, 0, 2, 3, 0, 3, 0, 7, 4, 1, 4, 2})
	// Long pseudo-random inputs reach overlapping batches with partial
	// releases between them, which short hand-written ones rarely do.
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
		cfg := bootLedgerConfig{
			boot: oracleBootLatencies[draw(len(oracleBootLatencies))],
			plan: oraclePlans[draw(len(oraclePlans))],
		}
		checkBootLedger(t, cfg, draw, func() bool { return len(data) > 0 }, 1024)
	})
}
