package cloudmedia

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
)

// fluidGoldenSHA256 is the SHA-256 of json.Marshal(Report) for
// fluidGoldenScenario run with KeepHistory. It pins the fluid kernel
// (arrivals, completions, jumps, rarest-first peer allocation, queue
// drain and the quality window) and everything the controller derives
// from it, bit for bit: a rewrite of the kernel that reorders a single
// float operation fails here. Update it only for a change that is meant
// to move results, and say so where the change is recorded.
const fluidGoldenSHA256 = "e80b2c304641f85b19399f3cd8115505e78076a041ec2a951db15cbd719713ac"

// fluidGoldenScenario is a reduced copy of the 100M-viewer fluid day: the
// same viewer scale, budgets and VM clusters over 24 hours, so the evening
// peak still binds the per-chunk server cap, but on 6 channels instead of
// 48.
func fluidGoldenScenario(t *testing.T, workers int) simulate.Scenario {
	t.Helper()
	sc := simulate.Default(simulate.CloudAssisted, 1).With(
		WithFidelity(simulate.FidelityFluid),
		WithViewerScale(34_000_000),
		WithChannels(6),
		WithHours(24),
		WithBudgets(5_200_000, 3000),
		WithVMClusters(
			plan.VMCluster{Name: "mega-a", MaxVMs: 4_200_000, PricePerHour: 0.64, Utility: 1.0},
			plan.VMCluster{Name: "mega-b", MaxVMs: 4_200_000, PricePerHour: 0.60, Utility: 0.9},
		),
		WithSeed(42),
		WithWorkers(workers),
	)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestFluidDayReportGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		rep, err := fluidGoldenScenario(t, workers).Run(context.Background(), simulate.KeepHistory())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Records) != 25 {
			t.Fatalf("workers %d: %d records, want 25 (bootstrap + 24 hourly rounds)", workers, len(rep.Records))
		}
		capped := 0
		for _, r := range rep.Records {
			capped += r.DemandErrors
		}
		if capped == 0 {
			t.Errorf("workers %d: no round hit the server cap; the scenario no longer reaches the 100M day's evening regime", workers)
		}
		checkIntervalsSumToBill(t, rep)
		// One integral feeds both: on the on-demand plan the tiers are
		// the catalog-price costs bit for bit.
		if rep.Bill.OnDemandUSD != rep.VMCostTotal || rep.Bill.StorageUSD != rep.StorageCostTotal {
			t.Errorf("workers %d: bill on-demand $%v, storage $%v; catalog-price costs $%v, $%v",
				workers, rep.Bill.OnDemandUSD, rep.Bill.StorageUSD, rep.VMCostTotal, rep.StorageCostTotal)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != fluidGoldenSHA256 {
			t.Errorf("workers %d: report SHA-256 = %s, want %s", workers, got, fluidGoldenSHA256)
		}
	}
}
