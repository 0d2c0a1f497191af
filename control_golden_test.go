package cloudmedia

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"cloudmedia/pkg/simulate"
)

// controlGoldenSHA256 is the SHA-256 of json.Marshal(Report) for
// controlGoldenScenario run with KeepHistory. It pins every record,
// snapshot and bill of the control plane bit for bit: a refactor of the
// event engine, the controller, the planners or the demand derivation
// that moves any number fails here. Update it only for a change that is
// meant to move results, and say so where the change is recorded.
const controlGoldenSHA256 = "8784ffdf4f3f6bc8df1f5ec34d922095288e92e765f8fae49bb96baeb4c73aea"

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
		checkIntervalsSumToBill(t, rep)
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

// checkIntervalsSumToBill holds a run whose last round falls on its end
// to bill = Σ intervals, tier by tier: the records' Cost fields sum to the
// report's Bill. A record's Cost is the difference of two cumulative
// bills, so the sum matches only up to rounding: at most half an ulp per
// difference and half an ulp per addition, which bounds the drift of n
// records by n·2⁻⁵² of the field's total. Counts match exactly.
func checkIntervalsSumToBill(t *testing.T, rep *simulate.Report) {
	t.Helper()
	var sum simulate.LedgerTotals
	for _, r := range rep.Records {
		sum.Add(r.Cost)
	}
	tol := float64(len(rep.Records)) * 0x1p-52
	got, want := reflect.ValueOf(sum), reflect.ValueOf(rep.Bill)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		switch g, w := got.Field(i), want.Field(i); g.Kind() {
		case reflect.Float64:
			if math.Abs(g.Float()-w.Float()) > tol*math.Abs(w.Float()) {
				t.Errorf("Σ records %s = %v, bill %v (tolerance %.3g relative)", name, g.Float(), w.Float(), tol)
			}
		default:
			if g.Int() != w.Int() {
				t.Errorf("Σ records %s = %d, bill %d", name, g.Int(), w.Int())
			}
		}
	}
}
