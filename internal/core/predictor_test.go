package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

func TestLastInterval(t *testing.T) {
	p := LastInterval{}
	if got := p.Predict([]float64{1, 5, 3}); got != 3 {
		t.Errorf("Predict = %v, want 3", got)
	}
	if got := p.Predict([]float64{7}); got != 7 {
		t.Errorf("Predict = %v, want 7", got)
	}
}

func TestEWMAValidate(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		ok    bool
	}{
		{0.5, true},
		{1, true},
		{math.SmallestNonzeroFloat64, true},
		{0, false},
		{-0.1, false},
		{1.5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		err := (EWMA{Alpha: tc.alpha}).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("alpha %v: Validate() = %v, want ok=%v", tc.alpha, err, tc.ok)
		}
	}
}

func TestEWMAMath(t *testing.T) {
	p := EWMA{Alpha: 0.5}
	// f0 = 2; f1 = 0.5·4 + 0.5·2 = 3; f2 = 0.5·8 + 0.5·3 = 5.5.
	if got := p.Predict([]float64{2, 4, 8}); !mathx.ApproxEqual(got, 5.5, 1e-12) {
		t.Errorf("Predict = %v, want 5.5", got)
	}
	// Alpha 1 degenerates to LastInterval.
	one := EWMA{Alpha: 1}
	if got := one.Predict([]float64{2, 4, 8}); got != 8 {
		t.Errorf("alpha=1 Predict = %v, want 8", got)
	}
}

func TestEWMASmoothsSpike(t *testing.T) {
	smooth := EWMA{Alpha: 0.3}
	spiky := []float64{10, 10, 10, 100}
	got := smooth.Predict(spiky)
	if got <= 10 || got >= 100 {
		t.Errorf("Predict = %v, want strictly between baseline and spike", got)
	}
	if last := (LastInterval{}).Predict(spiky); got >= last {
		t.Errorf("EWMA %v should undershoot LastInterval %v on a spike", got, last)
	}
}

func TestPeakOfWindow(t *testing.T) {
	p := PeakOfWindow{Window: 3}
	if got := p.Predict([]float64{9, 1, 2, 3}); got != 3 {
		t.Errorf("Predict = %v, want 3 (9 is outside the window)", got)
	}
	all := PeakOfWindow{}
	if got := all.Predict([]float64{9, 1, 2, 3}); got != 9 {
		t.Errorf("Predict = %v, want 9 (unbounded window)", got)
	}
}

func TestDiurnalMemory(t *testing.T) {
	if err := (DiurnalMemory{Period: 0}).Validate(); err == nil {
		t.Error("zero period accepted")
	}
	d := DiurnalMemory{Period: 3}
	// Too little history: fall back to last interval.
	if got := d.Predict([]float64{4, 5}); got != 5 {
		t.Errorf("short history Predict = %v, want 5", got)
	}
	// history = [10, 1, 1, 2]: one period before next is index 1 (value 1);
	// blended with the latest (2): 0.7·1 + 0.3·2 = 1.3.
	if got := d.Predict([]float64{10, 1, 1, 2}); !mathx.ApproxEqual(got, 1.3, 1e-12) {
		t.Errorf("Predict = %v, want 1.3", got)
	}
}

// Property: every predictor returns a value within [min, max] of its
// history — forecasts never extrapolate outside observed range.
func TestPredictorsBoundedByHistory(t *testing.T) {
	preds := []Predictor{
		LastInterval{},
		EWMA{Alpha: 0.4},
		PeakOfWindow{Window: 5},
		DiurnalMemory{Period: 24},
	}
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		h := make([]float64, n)
		lo, hi := 1e18, -1e18
		for i := range h {
			h[i] = r.Float64() * 100
			if h[i] < lo {
				lo = h[i]
			}
			if h[i] > hi {
				hi = h[i]
			}
		}
		for _, p := range preds {
			got := p.Predict(h)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestControllerRejectsInvalidPredictor(t *testing.T) {
	s, cl, _ := testSystem(t, sim.ClientServer)
	broker, err := cloud.NewBroker(cl)
	if err != nil {
		t.Fatal(err)
	}
	opts := resolvedOptions(testutil.SequentialWithJumps(t, 5, 0.9, 0.2))
	opts.Predictor = EWMA{Alpha: -1}
	if _, err := NewController(s, cl, broker, opts); err == nil {
		t.Error("invalid EWMA accepted")
	}
}
