package cloud

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudmedia/internal/mathx"
)

// withBootLatency, withShutdownLatency and withVMBandwidth override the
// lifecycle settings New otherwise takes from the paper's defaults, so the
// tests can reach New's validation of them.
func withBootLatency(seconds float64) Option {
	return func(c *Cloud) { c.bootSeconds = seconds }
}

func withShutdownLatency(seconds float64) Option {
	return func(c *Cloud) { c.shutdownSeconds = seconds }
}

func withVMBandwidth(bytesPerSecond float64) Option {
	return func(c *Cloud) { c.vmBandwidth = bytesPerSecond }
}

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

func TestVMLifecycleBootLatency(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetVMs(0, "standard", 10); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	if got, _ := c.AllocatedVMs("standard"); got != 10 {
		t.Errorf("allocated = %d, want 10", got)
	}
	// Before boot completes no VM serves traffic.
	if got, _ := c.ActiveVMs(24.9, "standard"); got != 0 {
		t.Errorf("active at 24.9 s = %d, want 0 (boot takes 25 s)", got)
	}
	// VMs launch in parallel: all 10 become active together.
	if got, _ := c.ActiveVMs(25.1, "standard"); got != 10 {
		t.Errorf("active at 25.1 s = %d, want 10", got)
	}
	if got := c.TotalActiveVMs(30); got != 10 {
		t.Errorf("TotalActiveVMs = %d, want 10", got)
	}
}

func TestVMScaleDownReleasesBootingFirst(t *testing.T) {
	c := newTestCloud(t)
	if err := c.SetVMs(0, "standard", 5); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	// At t=100 the 5 are active; request 5 more, then immediately scale to 7:
	// the 3 released VMs must come from the booting batch.
	if err := c.SetVMs(100, "standard", 10); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	if err := c.SetVMs(101, "standard", 7); err != nil {
		t.Fatalf("SetVMs: %v", err)
	}
	if got, _ := c.ActiveVMs(110, "standard"); got != 5 {
		t.Errorf("active at 110 = %d, want 5 (2 still booting)", got)
	}
	if got, _ := c.ActiveVMs(130, "standard"); got != 7 {
		t.Errorf("active at 130 = %d, want 7", got)
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
	c.Advance(7200)
	vm, storage := c.Costs()
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
	c.Advance(14400)
	vm2, _ := c.Costs()
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
	c.Advance(3600)
	vm, _ := c.Costs()
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
	c.Advance(24 * 3600)
	_, storage := c.Costs()
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
	c.Advance(3600)
	c.Advance(1800) // going backwards must not un-bill
	vm, _ := c.Costs()
	if !mathx.ApproxEqual(vm, 0.45, 1e-9) {
		t.Errorf("vm cost = %v, want 0.45", vm)
	}
}

func TestCustomLatencyAndBandwidthOptions(t *testing.T) {
	c, err := New(DefaultVMClusters(), nil, withBootLatency(5), withVMBandwidth(2e6))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.BootLatency() != 5 || c.VMBandwidth() != 2e6 {
		t.Errorf("options not applied: boot=%v bw=%v", c.BootLatency(), c.VMBandwidth())
	}
	if _, err := New(DefaultVMClusters(), nil, withVMBandwidth(-1)); err == nil {
		t.Error("negative bandwidth: want error")
	}
	if _, err := New(DefaultVMClusters(), nil, withBootLatency(-1)); err == nil {
		t.Error("negative boot latency: want error")
	}
}

// TestPreemptSpotKillsBootingFirst: preempted VMs come out of the booting
// batches before the running ones, and stop billing at once.
func TestPreemptSpotKillsBootingFirst(t *testing.T) {
	c := newTestCloud(t, WithPricing(PricingPlan{Name: "halfspot", SpotFraction: 0.5, SpotRate: 0.4}))
	if err := c.SetVMs(0, "standard", 5); err != nil {
		t.Fatal(err)
	}
	// 5 active at t=100; request 5 more (booting), then preempt 3 of the
	// 5 spot VMs.
	if err := c.SetVMs(100, "standard", 10); err != nil {
		t.Fatal(err)
	}
	killed, _, err := c.PreemptSpot(101, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if killed != 3 {
		t.Fatalf("killed = %d, want 3", killed)
	}
	// The 3 preemptions consumed booting instances: 5 originals stay
	// active, 2 boots remain.
	if got, _ := c.ActiveVMs(110, "standard"); got != 5 {
		t.Errorf("active at 110 = %d, want 5", got)
	}
	if got, _ := c.ActiveVMs(130, "standard"); got != 7 {
		t.Errorf("active at 130 = %d, want 7", got)
	}
	// From t=101 on, 7 VMs bill instead of 10.
	before, _ := c.Costs()
	c.Advance(101 + 3600)
	after, _ := c.Costs()
	if want := 7 * 0.45; !mathx.ApproxEqual(after-before, want, 1e-9) {
		t.Errorf("hour after preemption cost %v, want %v", after-before, want)
	}
}

// TestNonFiniteOptionsRejected: New refuses NaN and infinite lifecycle
// latencies and VM bandwidths, alongside the negative ones it always
// refused.
func TestNonFiniteOptionsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"boot NaN", withBootLatency(nan), false},
		{"boot +Inf", withBootLatency(inf), false},
		{"boot -Inf", withBootLatency(-inf), false},
		{"boot -1", withBootLatency(-1), false},
		{"boot 0", withBootLatency(0), true},
		{"boot 60", withBootLatency(60), true},
		{"shutdown NaN", withShutdownLatency(nan), false},
		{"shutdown +Inf", withShutdownLatency(inf), false},
		{"shutdown -Inf", withShutdownLatency(-inf), false},
		{"shutdown -1", withShutdownLatency(-1), false},
		{"shutdown 0", withShutdownLatency(0), true},
		{"bandwidth NaN", withVMBandwidth(nan), false},
		{"bandwidth +Inf", withVMBandwidth(inf), false},
		{"bandwidth -Inf", withVMBandwidth(-inf), false},
		{"bandwidth -1", withVMBandwidth(-1), false},
		{"bandwidth 0", withVMBandwidth(0), false},
		{"bandwidth 2e6", withVMBandwidth(2e6), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(DefaultVMClusters(), nil, tc.opt)
			if (err == nil) != tc.ok {
				t.Errorf("New err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestNonFiniteTimeRejected: every mutator refuses a NaN or infinite now
// and leaves the cloud as it was, and Advance at such a time bills
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
			c.Advance(now)
			if got, _ := c.AllocatedVMs("standard"); got != 10 {
				t.Errorf("allocated = %d, want 10", got)
			}
			if got, _ := c.StoredGB("standard"); got != 5 {
				t.Errorf("stored = %v GB, want 5", got)
			}
			if vm, storage := c.Costs(); vm != 0 || storage != 0 {
				t.Errorf("costs = (%v, %v) before any time passed, want 0", vm, storage)
			}
			c.Advance(3600)
			vm, storage := c.Costs()
			if !mathx.ApproxEqual(vm, 10*0.45, 1e-12) || !mathx.ApproxEqual(storage, 5*1.11e-4, 1e-12) {
				t.Errorf("one hour billed (%v, %v), want (%v, %v)", vm, storage, 10*0.45, 5*1.11e-4)
			}
			if total := c.Ledger().Totals().TotalUSD(); math.IsNaN(total) || math.IsInf(total, 0) {
				t.Errorf("ledger total %v", total)
			}
		})
	}
}

// TestBootBatchesStayOrdered: scale-ups that arrive out of time order
// still leave one batch per distinct ready time in ascending order (a new
// ready time is inserted in place, a repeated one merges), releases take
// the latest ready time first, and a query at a ready time counts that
// batch as serving.
func TestBootBatchesStayOrdered(t *testing.T) {
	c := newTestCloud(t) // 25 s boot latency
	for _, step := range []struct {
		now    float64
		target int
	}{
		{100, 4}, // ready 125
		{50, 6},  // ready 75, before it
		{100, 9}, // ready 125, merges with the last batch
		{75, 10}, // ready 100, between the two
		{50, 12}, // ready 75, merges with the first batch
	} {
		if err := c.SetVMs(step.now, "standard", step.target); err != nil {
			t.Fatal(err)
		}
	}
	st := c.vms["standard"]
	if want := []bootBatch{{75, 4}, {100, 1}, {125, 7}}; !slices.Equal(st.boots, want) {
		t.Fatalf("boots = %v, want %v", st.boots, want)
	}
	if err := c.SetVMs(110, "standard", 6); err != nil { // release 6 of the 125 batch
		t.Fatal(err)
	}
	if want := []bootBatch{{75, 4}, {100, 1}, {125, 1}}; !slices.Equal(st.boots, want) {
		t.Fatalf("after release boots = %v, want %v", st.boots, want)
	}
	if got, _ := c.ActiveVMs(100, "standard"); got != 5 {
		t.Errorf("active at 100 = %d, want 5 (the 75 and 100 batches)", got)
	}
	if want := []bootBatch{{125, 1}}; !slices.Equal(st.boots, want) {
		t.Errorf("after query boots = %v, want the finished batches retired: %v", st.boots, want)
	}
}

// TestBootLedgerIndependentOfVMCount drives a 4.2M-VM cluster through the
// 100M-viewer day's shape, 25 hourly targets from 0 up to 4.2M and back.
// The boot ledger must follow the number of distinct ready times, not the
// number of VMs: a scale-up allocates at most once (one batch), and the
// ledger never holds more batches than ready times still pending. The
// 2.5 h boot latency keeps up to three hourly batches booting at once.
func TestBootLedgerIndependentOfVMCount(t *testing.T) {
	const maxVMs = 4_200_000
	c, err := New([]VMClusterSpec{{Name: "mega", Utility: 1, PricePerHour: 0.64, MaxVMs: maxVMs}}, nil,
		withBootLatency(2.5*3600))
	if err != nil {
		t.Fatal(err)
	}
	st := c.vms["mega"]
	var pending []float64 // ready times issued and not yet passed
	prev := 0
	for h := 0; h <= 24; h++ {
		now := float64(h) * 3600
		target := int(math.Round(maxVMs * math.Sin(math.Pi*float64(h)/24)))
		// AllocsPerRun calls f once to warm up before measuring; skip that
		// call so the target is applied exactly once, inside the
		// measurement.
		warm := true
		var setErr error
		allocs := testing.AllocsPerRun(1, func() {
			if warm {
				warm = false
				return
			}
			setErr = c.SetVMs(now, "mega", target)
		})
		if setErr != nil {
			t.Fatalf("hour %d: SetVMs(%d): %v", h, target, setErr)
		}
		if target > prev {
			pending = append(pending, now+c.BootLatency())
			if allocs > 1 {
				t.Errorf("hour %d: scale-up %d → %d made %v allocations, want ≤ 1", h, prev, target, allocs)
			}
		}
		if len(st.boots) > len(pending) {
			t.Fatalf("hour %d: %d boot records for %d pending ready times", h, len(st.boots), len(pending))
		}
		c.TotalActiveVMs(now)
		pending = slices.DeleteFunc(pending, func(r float64) bool { return r <= now })
		prev = target
	}
	if prev != 0 || c.TotalActiveVMs(24*3600) != 0 {
		t.Errorf("day ends with %d VMs targeted, %d active; want 0", prev, c.TotalActiveVMs(24*3600))
	}
}
