package cloud

import (
	"testing"
)

// Float addition is not associative, so pricing the bill must visit
// clusters in registration order rather than ranging a map: with Go's
// randomized map iteration the cost would differ in the last ulp between
// otherwise identical runs, breaking bit-identical replay.
// The prices below are chosen so that different summation orders really
// do produce different doubles ((0.1+0.2)+0.3 != (0.3+0.2)+0.1).
func TestAccrualOrderIsDeterministic(t *testing.T) {
	vmSpecs := []VMClusterSpec{
		{Name: "a", Utility: 1, PricePerHour: 0.1, MaxVMs: 5},
		{Name: "b", Utility: 1, PricePerHour: 0.2, MaxVMs: 5},
		{Name: "c", Utility: 1, PricePerHour: 0.3, MaxVMs: 5},
	}
	nfsSpecs := []NFSClusterSpec{
		{Name: "x", Utility: 1, PricePerGBHour: 0.1, CapacityGB: 10},
		{Name: "y", Utility: 1, PricePerGBHour: 0.2, CapacityGB: 10},
		{Name: "z", Utility: 1, PricePerGBHour: 0.3, CapacityGB: 10},
	}
	// Registration-order sum, 1 VM / 1 GB each for 1h. Computed through
	// float64 variables so Go does runtime IEEE arithmetic instead of
	// folding the constants at arbitrary precision.
	p1, p2, p3 := 0.1, 0.2, 0.3
	wantVM := (p1 + p2) + p3
	wantNFS := (p1 + p2) + p3
	for i := 0; i < 50; i++ {
		c, err := New(vmSpecs, nfsSpecs)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if err := c.SetVMs(0, name, 1); err != nil {
				t.Fatalf("SetVMs(%s): %v", name, err)
			}
		}
		for _, name := range []string{"x", "y", "z"} {
			if err := c.SetStorage(0, name, 1); err != nil {
				t.Fatalf("SetStorage(%s): %v", name, err)
			}
		}
		vmCost, storageCost := c.Costs(3600)
		if vmCost != wantVM {
			t.Fatalf("run %d: vmCost = %.20g, want registration-order sum %.20g", i, vmCost, wantVM)
		}
		if storageCost != wantNFS {
			t.Fatalf("run %d: storageCost = %.20g, want registration-order sum %.20g", i, storageCost, wantNFS)
		}
	}
}
