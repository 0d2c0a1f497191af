package cloud

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cloudmedia/internal/mathx"
)

func newTestCloud(t *testing.T, opts ...Option) *Cloud {
	t.Helper()
	c, err := New(DefaultVMClusters(), DefaultNFSClusters(), opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestDefaultCatalogsMatchPaperTables(t *testing.T) {
	vms := DefaultVMClusters()
	if len(vms) != 3 {
		t.Fatalf("Table II has 3 clusters, got %d", len(vms))
	}
	if vms[0].PricePerHour != 0.450 || vms[0].MaxVMs != 75 || vms[0].Utility != 0.6 {
		t.Errorf("standard cluster mismatch: %+v", vms[0])
	}
	if vms[1].PricePerHour != 0.700 || vms[1].MaxVMs != 30 || vms[1].Utility != 0.8 {
		t.Errorf("medium cluster mismatch: %+v", vms[1])
	}
	if vms[2].PricePerHour != 0.800 || vms[2].MaxVMs != 45 || vms[2].Utility != 1.0 {
		t.Errorf("advanced cluster mismatch: %+v", vms[2])
	}
	nfs := DefaultNFSClusters()
	if len(nfs) != 2 {
		t.Fatalf("Table III has 2 clusters, got %d", len(nfs))
	}
	if nfs[0].PricePerGBHour != 1.11e-4 || nfs[0].CapacityGB != 20 {
		t.Errorf("standard NFS mismatch: %+v", nfs[0])
	}
	if nfs[1].PricePerGBHour != 2.08e-4 || nfs[1].CapacityGB != 20 {
		t.Errorf("high NFS mismatch: %+v", nfs[1])
	}
	// Marginal utility ordering drives both heuristics: standard VM wins.
	if !(vms[0].MarginalUtility() > vms[2].MarginalUtility() && vms[2].MarginalUtility() > vms[1].MarginalUtility()) {
		t.Errorf("unexpected marginal utility order: %v %v %v",
			vms[0].MarginalUtility(), vms[1].MarginalUtility(), vms[2].MarginalUtility())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("no VM clusters: want error")
	}
	dup := []VMClusterSpec{
		{Name: "a", Utility: 1, PricePerHour: 1, MaxVMs: 1},
		{Name: "a", Utility: 1, PricePerHour: 1, MaxVMs: 1},
	}
	if _, err := New(dup, nil); err == nil {
		t.Error("duplicate VM cluster: want error")
	}
	bad := []VMClusterSpec{{Name: "", Utility: 1, PricePerHour: 1, MaxVMs: 1}}
	if _, err := New(bad, nil); err == nil {
		t.Error("invalid VM spec: want error")
	}
	badNFS := []NFSClusterSpec{{Name: "x", Utility: 0, PricePerGBHour: 1, CapacityGB: 1}}
	if _, err := New(DefaultVMClusters(), badNFS); err == nil {
		t.Error("invalid NFS spec: want error")
	}
}

func TestVMCapacityLimit(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetVMs(0, "medium", 31); !errors.Is(err, ErrCapacity) {
		t.Errorf("over capacity: err = %v, want ErrCapacity", err)
	}
	if err := c.SetVMs(0, "nope", 1); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("unknown cluster: err = %v, want ErrUnknownCluster", err)
	}
	if err := c.SetVMs(0, "medium", -1); err == nil {
		t.Error("negative target: want error")
	}
}

func TestBillingVMHours(t *testing.T) {
	c := newTestCloud(t)
	// 10 standard VMs for exactly 2 hours: 10 × $0.45 × 2 = $9.
	if err := c.SetVMs(0, "standard", 10); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	vm, storage := c.Costs(7200)
	if !mathx.ApproxEqual(vm, 9, 1e-9) {
		t.Errorf("vm cost = %v, want 9", vm)
	}
	if storage != 0 {
		t.Errorf("storage cost = %v, want 0", storage)
	}
	// Scale to zero: no further accrual.
	if err := c.SetVMs(7200, "standard", 0); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	vm2, _ := c.Costs(14400)
	if !mathx.ApproxEqual(vm2, 9, 1e-9) {
		t.Errorf("vm cost after release = %v, want 9", vm2)
	}
}

func TestBillingMixedClusters(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetVMs(0, "standard", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVMs(0, "advanced", 2); err != nil {
		t.Fatal(err)
	}
	vm, _ := c.Costs(3600)
	want := 4*0.45 + 2*0.80
	if !mathx.ApproxEqual(vm, want, 1e-9) {
		t.Errorf("vm cost = %v, want %v", vm, want)
	}
}

func TestBillingStorage(t *testing.T) {
	c := newTestCloud(t)
	// 6 GB on high for 24 h: 6 × 2.08e-4 × 24 ≈ $0.03.
	if err := c.SetStorage(0, "high", 6); err != nil {
		t.Fatalf("SetStorage: %v", err)
	}
	_, storage := c.Costs(24 * 3600)
	if !mathx.ApproxEqual(storage, 6*2.08e-4*24, 1e-9) {
		t.Errorf("storage cost = %v", storage)
	}
}

func TestStorageCapacityAndErrors(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetStorage(0, "high", 25); !errors.Is(err, ErrCapacity) {
		t.Errorf("over capacity: err = %v, want ErrCapacity", err)
	}
	if err := c.SetStorage(0, "nope", 1); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("unknown cluster: err = %v", err)
	}
	if err := c.SetStorage(0, "high", -1); err == nil {
		t.Error("negative GB: want error")
	}
	if err := c.SetStorage(0, "high", 12); err != nil {
		t.Fatalf("SetStorage: %v", err)
	}
	if gb, _ := c.StoredGB("high"); gb != 12 {
		t.Errorf("StoredGB = %v, want 12", gb)
	}
}

func TestBillingMonotoneTime(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetVMs(0, "standard", 1); err != nil {
		t.Fatal(err)
	}
	// A scale-up at 3600 closes the first segment there; an earlier read
	// or mutation must not un-bill it.
	if err := c.SetVMs(3600, "standard", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVMs(1800, "standard", 1); err != nil {
		t.Fatal(err)
	}
	vm, _ := c.Costs(1800)
	if !mathx.ApproxEqual(vm, 0.45, 1e-9) {
		t.Errorf("vm cost = %v, want 0.45", vm)
	}
}

// TestPreemptSpotStopsBilling: preempted spot VMs leave the allocation
// and stop billing at once.
func TestPreemptSpotStopsBilling(t *testing.T) {
	c := newTestCloud(t, WithPricing(PricingPlan{Name: "halfspot", SpotFraction: 0.5, SpotRate: 0.4}))
	if err := c.SetVMs(0, "standard", 10); err != nil {
		t.Fatal(err)
	}
	// Half of the 10 VMs are spot; preempt 3 of those 5.
	killed, lost, err := c.PreemptSpot(101, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if killed != 3 || lost != 0.3 {
		t.Fatalf("PreemptSpot = (%d, %v), want (3, 0.3)", killed, lost)
	}
	if got, _ := c.AllocatedVMs("standard"); got != 7 {
		t.Errorf("allocated = %d, want 7", got)
	}
	// From t=101 on, 7 VMs bill instead of 10.
	before, _ := c.Costs(101)
	after, _ := c.Costs(101 + 3600)
	if want := 7 * 0.45; !mathx.ApproxEqual(after-before, want, 1e-9) {
		t.Errorf("hour after preemption cost %v, want %v", after-before, want)
	}
}

// TestNonFiniteTimeRejected: every mutator refuses a NaN or infinite now
// and leaves the cloud as it was, and a read at such a time bills
// nothing, so the bill stays finite and the next real hour bills exactly
// one hour.
func TestNonFiniteTimeRejected(t *testing.T) {
	for _, now := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(now), func(t *testing.T) {
			c := newTestCloud(t, WithPricing(SpotPricing()))
			if err := c.SetVMs(0, "standard", 10); err != nil {
				t.Fatal(err)
			}
			if err := c.SetStorage(0, "standard", 5); err != nil {
				t.Fatal(err)
			}
			if err := c.SetVMs(now, "standard", 20); err == nil {
				t.Error("SetVMs accepted the time")
			}
			if _, _, err := c.PreemptSpot(now, 1); err == nil {
				t.Error("PreemptSpot accepted the time")
			}
			if err := c.SetStorage(now, "standard", 1); err == nil {
				t.Error("SetStorage accepted the time")
			}
			if got, _ := c.AllocatedVMs("standard"); got != 10 {
				t.Errorf("allocated = %d, want 10", got)
			}
			if got, _ := c.StoredGB("standard"); got != 5 {
				t.Errorf("stored = %v GB, want 5", got)
			}
			if vm, storage := c.Costs(now); vm != 0 || storage != 0 {
				t.Errorf("costs = (%v, %v) before any time passed, want 0", vm, storage)
			}
			vm, storage := c.Costs(3600)
			if !mathx.ApproxEqual(vm, 10*0.45, 1e-12) || !mathx.ApproxEqual(storage, 5*1.11e-4, 1e-12) {
				t.Errorf("one hour billed (%v, %v), want (%v, %v)", vm, storage, 10*0.45, 5*1.11e-4)
			}
			if total := c.Bill(now).TotalUSD(); math.IsNaN(total) || math.IsInf(total, 0) {
				t.Errorf("bill total %v", total)
			}
		})
	}
}
