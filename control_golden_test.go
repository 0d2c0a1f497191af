package cloudmedia

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudmedia/pkg/simulate"
)

// controlGoldenSHA256 is the SHA-256 of json.Marshal(Report) for
// controlGoldenScenario run with KeepHistory. It pins every record,
// snapshot and bill of the control plane bit for bit: a refactor of the
// event engine, the controller, the planners or the demand derivation
// that moves any number fails here. Update it only for a change that is
// meant to move results, and say so where the change is recorded.
const controlGoldenSHA256 = "fa6564ea492549df2ffec115b59a8d5e965788ebdf4de61048b16e1484e1f26c"

// controlGoldenScenario is a three-hour copy of the minute-round control
// day: 24 channels, 60 s rounds, an EWMA forecaster, the spot-hedged
// lookahead planner, spot pricing and faults, at seed 7.
func controlGoldenScenario(t *testing.T, workers int) simulate.Scenario {
	t.Helper()
	faults, err := simulate.ParseFault("outage@19.5h+2h,preempt@20h:0.6,degrade@8h+3h:0.5")
	if err != nil {
		t.Fatal(err)
	}
	sc := simulate.Default(simulate.CloudAssisted, 1).With(
		WithChannels(24),
		WithHours(3),
		WithInterval(60),
		WithPredictor(simulate.EWMA{Alpha: 0.4}),
		WithPolicy(simulate.Lookahead{SpotHedge: true}),
		WithPricing(simulate.SpotPricing()),
		WithFaults(faults),
		WithSeed(7),
		WithWorkers(workers),
	)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestControlDayReportGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		rep, err := controlGoldenScenario(t, workers).Run(context.Background(), simulate.KeepHistory())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Records) != 181 {
			t.Fatalf("workers %d: %d records, want 181 (bootstrap + 180 minute rounds)", workers, len(rep.Records))
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != controlGoldenSHA256 {
			t.Errorf("workers %d: report SHA-256 = %s, want %s", workers, got, controlGoldenSHA256)
		}
	}
}
