package cloud

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPricingValidate(t *testing.T) {
	good := []PricingPlan{{}, OnDemandPricing(), ReservedPricing()}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%q: %v", p.DisplayName(), err)
		}
	}
	bad := []PricingPlan{
		{OnDemandRate: -1},
		{ReservedFraction: 2, TermHours: 24},
		{ReservedFraction: 0.5}, // reserved tier without a term
		{ReservedFraction: 0.5, TermHours: 24, ReservedRate: -0.1},
		{UpfrontFraction: -1},
		{StorageRate: -1},
		{TermHours: -3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestParsePricing(t *testing.T) {
	for _, name := range []string{"on-demand", "reserved", "spot"} {
		p, err := ParsePricing(name)
		if err != nil {
			t.Errorf("ParsePricing(%q): %v", name, err)
			continue
		}
		if p.DisplayName() != name {
			t.Errorf("ParsePricing(%q).DisplayName() = %q", name, p.DisplayName())
		}
	}
	if _, err := ParsePricing("preemptible"); err == nil {
		t.Error("unknown plan accepted")
	}
}

// TestLedgerOnDemandMatchesLegacyCosts: under the default plan, the
// bill's tiers are the catalog-price Costs bit for bit, and the VM-hours
// of whole-second allocation changes read exactly.
func TestLedgerOnDemandMatchesLegacyCosts(t *testing.T) {
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVMs(0, "standard", 10); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetStorage(0, "high", 5); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVMs(2*3600, "standard", 4); err != nil {
		t.Fatal(err)
	}

	vmCost, storageCost := cl.Costs(5 * 3600)
	bill := cl.Bill(5 * 3600)
	if bill.ReservedUSD != 0 || bill.UpfrontUSD != 0 {
		t.Errorf("on-demand plan accrued reserved dollars: %+v", bill)
	}
	if bill.OnDemandUSD != vmCost {
		t.Errorf("on-demand VM bill %v != catalog-price cost %v", bill.OnDemandUSD, vmCost)
	}
	if bill.StorageUSD != storageCost {
		t.Errorf("storage bill %v != catalog-price cost %v", bill.StorageUSD, storageCost)
	}
	if want := 10*2 + 4*3; bill.OnDemandVMHours != float64(want) {
		t.Errorf("VM-hours %v, want exactly %d", bill.OnDemandVMHours, want)
	}
	if want := 5 * 5; !approx(bill.GBHours, float64(want), 1e-9) {
		t.Errorf("GB-hours %v, want %d", bill.GBHours, want)
	}
}

// TestLedgerReservedSplit: with a reserved tier, committed capacity bills
// at the discounted rate whether used or not, overflow bills on demand,
// and the upfront fee recharges at each term boundary.
func TestLedgerReservedSplit(t *testing.T) {
	plan := PricingPlan{
		Name:             "test-reserved",
		ReservedFraction: 0.2, // standard 75→15, medium 30→6, advanced 45→9
		ReservedRate:     0.5,
		TermHours:        24,
		UpfrontFraction:  0.1,
	}
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters(), WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.vms[cl.vmIndex["standard"]].reserved; got != 15 {
		t.Errorf("reserved standard = %d, want 15", got)
	}

	// Upfront for term 1 is charged at construction:
	// Σ reserved × price × 24 h × 0.1.
	upfront := (15*0.450 + 6*0.700 + 9*0.800) * 24 * 0.1
	if b := cl.Bill(0); !approx(b.UpfrontUSD, upfront, 1e-9) {
		t.Fatalf("first-term upfront %v, want %v", b.UpfrontUSD, upfront)
	}

	// 20 standard VMs for 10 hours: 15 reserved at half price, 5 on demand.
	if err := cl.SetVMs(0, "standard", 20); err != nil {
		t.Fatal(err)
	}
	b := cl.Bill(10 * 3600)
	// All three clusters' reserved capacity bills, allocated or not.
	wantReserved := (15*0.450 + 6*0.700 + 9*0.800) * 0.5 * 10
	if !approx(b.ReservedUSD, wantReserved, 1e-9) {
		t.Errorf("reserved USD %v, want %v", b.ReservedUSD, wantReserved)
	}
	if want := 5 * 0.450 * 10.0; !approx(b.OnDemandUSD, want, 1e-9) {
		t.Errorf("on-demand USD %v, want %v", b.OnDemandUSD, want)
	}
	if want := (15 + 6 + 9) * 10.0; !approx(b.ReservedVMHours, want, 1e-9) {
		t.Errorf("reserved VM-hours %v, want %v", b.ReservedVMHours, want)
	}

	// The second term starts once the first ends, not at its boundary;
	// crossing into day 2 charges the upfront exactly once more.
	if b := cl.Bill(24 * 3600); !approx(b.UpfrontUSD, upfront, 1e-9) {
		t.Errorf("at the term boundary, upfront %v, want %v", b.UpfrontUSD, upfront)
	}
	if b := cl.Bill(30 * 3600); !approx(b.UpfrontUSD, 2*upfront, 1e-9) {
		t.Errorf("after term rollover, upfront %v, want %v", b.UpfrontUSD, 2*upfront)
	}
}

// TestLedgerCheckpoint: each Checkpoint returns the bill since the
// previous one, and the pieces sum to the cumulative bill.
func TestLedgerCheckpoint(t *testing.T) {
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVMs(0, "standard", 8); err != nil {
		t.Fatal(err)
	}
	first := cl.Checkpoint(3600)
	if !approx(first.OnDemandUSD, 8*0.450, 1e-9) {
		t.Errorf("interval 1 bill %v, want %v", first.OnDemandUSD, 8*0.450)
	}
	second := cl.Checkpoint(2 * 3600)
	if !approx(second.OnDemandUSD, 8*0.450, 1e-9) {
		t.Errorf("interval 2 bill %v, want %v", second.OnDemandUSD, 8*0.450)
	}
	total := cl.Bill(2 * 3600)
	if !approx(first.OnDemandUSD+second.OnDemandUSD, total.OnDemandUSD, 1e-9) {
		t.Errorf("checkpoints %v + %v != total %v", first.OnDemandUSD, second.OnDemandUSD, total.OnDemandUSD)
	}
	if drained := cl.Checkpoint(2 * 3600); drained.TotalUSD() != 0 {
		t.Errorf("third checkpoint not empty: %+v", drained)
	}
}

// TestLedgerReservedBeatsOnDemandWhenBusy: a fully loaded cluster is
// cheaper under the reservation plan, an idle one is cheaper on demand —
// the trade-off the plan models.
func TestLedgerReservedBeatsOnDemandWhenBusy(t *testing.T) {
	bill := func(plan PricingPlan, full bool) float64 {
		cl, err := New(DefaultVMClusters(), nil, WithPricing(plan))
		if err != nil {
			t.Fatal(err)
		}
		if full {
			for _, s := range DefaultVMClusters() {
				if err := cl.SetVMs(0, s.Name, s.MaxVMs); err != nil {
					t.Fatal(err)
				}
			}
		}
		return cl.Bill(24 * 3600).TotalUSD()
	}
	// Busy: every cluster at capacity for a day, so the whole reserved
	// tier is utilized.
	if od, rs := bill(OnDemandPricing(), true), bill(ReservedPricing(), true); rs >= od {
		t.Errorf("busy day: reserved %v not cheaper than on-demand %v", rs, od)
	}
	// Idle: zero allocation; reservations still bill.
	if od, rs := bill(OnDemandPricing(), false), bill(ReservedPricing(), false); rs <= od {
		t.Errorf("idle day: reserved %v not dearer than on-demand %v", rs, od)
	}
}

// BenchmarkLedgerAccrual measures the cost of pricing the bill (three VM
// clusters, two NFS clusters, reserved plan): one Bill read of the
// allocation integrals and their open segments, as every Checkpoint and
// report makes.
func BenchmarkLedgerAccrual(b *testing.B) {
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters(), WithPricing(ReservedPricing()))
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.SetVMs(0, "standard", 40); err != nil {
		b.Fatal(err)
	}
	if err := cl.SetStorage(0, "high", 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Bill(float64(i+1) * 900)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accruals/s")
}

// TestLedgerSpotSplit: a spot-tier plan splits the elastic allocation
// between spot and on-demand VM-hours exactly as spotVMs resolves it, and
// bills the spot share at the discounted rate.
func TestLedgerSpotSplit(t *testing.T) {
	plan := PricingPlan{Name: "halfspot", SpotFraction: 0.5, SpotRate: 0.4}
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters(), WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVMs(0, "standard", 10); err != nil {
		t.Fatal(err)
	}
	// 10 allocated, 0 reserved: spot = round(0.5×10) = 5, on-demand = 5.
	bill := cl.Bill(3600)
	if !approx(bill.SpotVMHours, 5, 1e-9) || !approx(bill.OnDemandVMHours, 5, 1e-9) {
		t.Errorf("VM-hour split spot=%v on-demand=%v, want 5/5", bill.SpotVMHours, bill.OnDemandVMHours)
	}
	if want := 5 * 0.450 * 0.4; !approx(bill.SpotUSD, want, 1e-9) {
		t.Errorf("spot bill %v, want %v", bill.SpotUSD, want)
	}
	if want := 5 * 0.450; !approx(bill.OnDemandUSD, want, 1e-9) {
		t.Errorf("on-demand bill %v, want %v", bill.OnDemandUSD, want)
	}
	if bill.Interruptions != 0 {
		t.Errorf("interruptions %d before any preemption", bill.Interruptions)
	}
}

// TestLedgerSpotAboveReservedTier: the spot fraction applies to the
// elastic allocation above the reserved count, never to reserved VMs.
func TestLedgerSpotAboveReservedTier(t *testing.T) {
	plan := PricingPlan{
		Name: "mixed", SpotFraction: 0.5, SpotRate: 0.4,
		ReservedFraction: 0.1, ReservedRate: 0.45, TermHours: 24,
	}
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters(), WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	// standard MaxVMs=75 → reserved ⌈7.5⌉ = 8; allocate 20 → elastic 12,
	// spot round(6)=6, on-demand 6. Reserved hours also bill the idle
	// clusters' commitments (medium 3, advanced 5): 8+3+5 = 16.
	if err := cl.SetVMs(0, "standard", 20); err != nil {
		t.Fatal(err)
	}
	bill := cl.Bill(3600)
	if !approx(bill.ReservedVMHours, 16, 1e-9) || !approx(bill.SpotVMHours, 6, 1e-9) || !approx(bill.OnDemandVMHours, 6, 1e-9) {
		t.Errorf("tier split reserved=%v spot=%v on-demand=%v, want 16/6/6",
			bill.ReservedVMHours, bill.SpotVMHours, bill.OnDemandVMHours)
	}
}

// TestPreemptSpot: a mass-preemption kills exactly the spot share,
// reports the lost fraction of the whole allocation, and records the
// interruption event; degenerate inputs behave.
func TestPreemptSpot(t *testing.T) {
	plan := PricingPlan{Name: "halfspot", SpotFraction: 0.5, SpotRate: 0.4}
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters(), WithPricing(plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVMs(0, "standard", 10); err != nil {
		t.Fatal(err)
	}
	killed, lost, err := cl.PreemptSpot(3600, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if killed != 5 || !approx(lost, 0.5, 1e-9) {
		t.Errorf("PreemptSpot killed %d lost %v, want 5 and 0.5", killed, lost)
	}
	if got, _ := cl.AllocatedVMs("standard"); got != 5 {
		t.Errorf("allocation after preemption %d, want 5", got)
	}
	if got := cl.Bill(3600).Interruptions; got != 1 {
		t.Errorf("interruptions %d, want 1", got)
	}

	if _, _, err := cl.PreemptSpot(3600, 1.5); err == nil {
		t.Error("fraction outside [0,1] accepted")
	}

	// On-demand plan: no spot tier, nothing to preempt.
	od, err := New(DefaultVMClusters(), DefaultNFSClusters())
	if err != nil {
		t.Fatal(err)
	}
	if err := od.SetVMs(0, "standard", 10); err != nil {
		t.Fatal(err)
	}
	killed, lost, err = od.PreemptSpot(3600, 1.0)
	if err != nil || killed != 0 || lost != 0 {
		t.Errorf("on-demand PreemptSpot = (%d, %v, %v), want no-op", killed, lost, err)
	}
	if got := od.Bill(3600).Interruptions; got != 0 {
		t.Errorf("on-demand plan recorded %d interruptions", got)
	}
}

// TestChargeTransfer: transfer dollars land in the bill; non-positive
// charges are dropped.
func TestChargeTransfer(t *testing.T) {
	cl, err := New(DefaultVMClusters(), DefaultNFSClusters())
	if err != nil {
		t.Fatal(err)
	}
	cl.ChargeTransfer(2.5)
	cl.ChargeTransfer(0)
	cl.ChargeTransfer(-1)
	bill := cl.Bill(0)
	if !approx(bill.TransferUSD, 2.5, 1e-9) {
		t.Errorf("transfer bill %v, want 2.5", bill.TransferUSD)
	}
	if !approx(bill.TotalUSD(), 2.5, 1e-9) {
		t.Errorf("TotalUSD %v does not include transfer dollars", bill.TotalUSD())
	}
}

// TestSpotPricingPreset pins the shipped spot plan's shape.
func TestSpotPricingPreset(t *testing.T) {
	p := SpotPricing()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.SpotFraction != 0.7 || p.SpotRate != 0.3 || p.SpotInterruption != 0.25 {
		t.Errorf("SpotPricing = %+v", p)
	}
	if p.DisplayName() != "spot" {
		t.Errorf("display name %q", p.DisplayName())
	}
}
