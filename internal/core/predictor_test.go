package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/provision"
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
	opts := resolvedOptions(testutil.SequentialWithJumps(t, 5, 0.9, 0.2))
	opts.Predictor = EWMA{Alpha: -1}
	if _, err := NewController(s, cl, opts); err == nil {
		t.Error("invalid EWMA accepted")
	}
}

// foldMismatch looks for a history where the O(1) extension disagrees in
// bits with re-folding: extend(Predict(h), x) against Predict(h ++ [x]),
// and the lookahead chain f₁ = Predict(h), f_s = extend(f_{s−1}, f_{s−1})
// against Predict(h ++ [f₁ … f_{s−1}]). The histories slide as the
// controller's do (historyLimit entries) and then carry the lookahead
// past that limit. It returns "" when every case matches.
func foldMismatch(p Predictor, extend func(prev, x float64) float64, r *rand.Rand) string {
	const k = 6
	var h []float64
	for n := 0; n < historyLimit+k; n++ {
		x := 1e3 * r.Float64()
		if len(h) > 0 {
			want := p.Predict(append(slices.Clone(h), x))
			if got := extend(p.Predict(h), x); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("len %d: extend %v, Predict %v", len(h)+1, got, want)
			}
		}
		if len(h) >= historyLimit {
			h = h[:copy(h, h[len(h)-historyLimit+1:])]
		}
		h = append(h, x)
		chain := slices.Clone(h)
		f := p.Predict(chain)
		for step := 2; step <= k; step++ {
			chain = append(chain, f)
			want := p.Predict(chain)
			if f = extend(f, f); math.Float64bits(f) != math.Float64bits(want) {
				return fmt.Sprintf("len %d step %d: extend %v, Predict %v", len(h), step, f, want)
			}
		}
	}
	return ""
}

// TestEWMAExtendIsPredictsFold holds EWMA's and LastInterval's extend to
// Predict bit for bit, and checks the comparison catches an extension
// that is equal only in exact arithmetic.
func TestEWMAExtendIsPredictsFold(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		alpha := 1 - r.Float64() // (0, 1]
		switch trial {
		case 0:
			alpha = 1
		case 1:
			alpha = math.SmallestNonzeroFloat64
		}
		e := EWMA{Alpha: alpha}
		if msg := foldMismatch(e, e.extend, r); msg != "" {
			t.Fatalf("EWMA{%v}: %s", alpha, msg)
		}
		if trial > 1 {
			// The same update reassociated rounds differently.
			mutant := func(prev, x float64) float64 { return prev + e.Alpha*(x-prev) }
			if foldMismatch(e, mutant, r) == "" {
				t.Fatalf("EWMA{%v}: a reassociated extension went unnoticed", alpha)
			}
		}
	}
	if msg := foldMismatch(LastInterval{}, LastInterval{}.extend, r); msg != "" {
		t.Fatalf("LastInterval: %s", msg)
	}
}

// recordingPredictor is a predictor with no extend: it logs every
// history it is asked about and its forecast.
type recordingPredictor struct {
	inner Predictor
	mu    *sync.Mutex
	calls *[][]float64 // each entry: the history, then the forecast
}

func (p recordingPredictor) Predict(history []float64) float64 {
	v := p.inner.Predict(history)
	p.mu.Lock()
	*p.calls = append(*p.calls, append(slices.Clone(history), v))
	p.mu.Unlock()
	return v
}

// Predictors without extend keep the re-folding path: every lookahead
// step is a Predict call on the history grown by the previous forecast.
// Wrapping EWMA that way must not change a single record, so the
// extension is exactly the path it replaces.
func TestLookaheadWithoutExtendPredictsEveryStep(t *testing.T) {
	const k = 3
	pol := provision.Lookahead{K: k}
	for _, inner := range []Predictor{PeakOfWindow{Window: 3}, EWMA{Alpha: 0.4}} {
		var calls [][]float64
		rec := recordingPredictor{inner: inner, mu: new(sync.Mutex), calls: &calls}
		if _, ok := Predictor(rec).(extender); ok {
			t.Fatal("recordingPredictor must not extend")
		}
		recorded, bill := runControllerWithWorkers(t, sim.P2P, pol, rec, 1)
		links := 0
		for i := 1; i < len(calls); i++ {
			prev, h := calls[i-1], calls[i]
			if slices.Equal(h[:len(h)-1], prev) {
				links++ // history = previous history ++ [previous forecast]
			}
		}
		// Per round and channel: one forecast (none in the bootstrap
		// round, which is handed its rates), then k lookahead steps of
		// which steps 2…k extend the call just before them.
		rounds, channels := len(recorded), len(recorded[0].ArrivalRates)
		if want := rounds*channels*(k+1) - channels; len(calls) != want {
			t.Errorf("%T: %d Predict calls, want %d", inner, len(calls), want)
		}
		if want := rounds * channels * (k - 1); links < want {
			t.Errorf("%T: %d chained lookahead calls, want at least %d", inner, links, want)
		}
		if _, ok := inner.(extender); ok {
			direct, directBill := runControllerWithWorkers(t, sim.P2P, pol, inner, 1)
			if !reflect.DeepEqual(direct, recorded) || !reflect.DeepEqual(directBill, bill) {
				t.Errorf("%T: the extension changed the run", inner)
			}
		}
	}
}

// foldLog is an EWMA that logs which of its methods the lookahead calls.
type foldLog struct {
	EWMA
	log *[]string
}

func (f foldLog) Predict(history []float64) float64 {
	*f.log = append(*f.log, fmt.Sprintf("predict %d", len(history)))
	return f.EWMA.Predict(history)
}

func (f foldLog) extend(prev, x float64) float64 {
	*f.log = append(*f.log, "extend")
	return f.EWMA.extend(prev, x)
}

// The rates a round is handed need not be the predictor's own forecast
// (the bootstrap round's come from the workload), so in the bootstrap
// round lookahead step 1 re-folds the history with the handed rate
// appended and the extension starts at step 2. Every later round has a
// history and the forecast made from it, so step 1 extends that
// forecast and no lookahead step re-folds.
func TestLookaheadExtendsFromStepTwo(t *testing.T) {
	s, cl, transfer := buildStack(t)
	var log []string
	opts := resolvedOptions(transfer)
	opts.Policy = provision.Lookahead{K: 3}
	opts.Predictor = foldLog{EWMA: EWMA{Alpha: 0.4}, log: &log}
	opts.Workers = 1 // one channel after another, so the log is in order
	ctl, err := NewController(s, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Provision(0, flatInputs(s, transfer, 0.45))
	var want []string
	for range s.Channels() {
		want = append(want, "predict 1", "extend", "extend")
	}
	if !slices.Equal(log, want) {
		t.Errorf("bootstrap lookahead calls %v, want %v", log, want)
	}
	log, want = log[:0], want[:0]
	ctl.runInterval(opts.IntervalSeconds)
	for range s.Channels() {
		want = append(want, "predict 1") // the round's own forecast
	}
	for range s.Channels() {
		want = append(want, "extend", "extend", "extend")
	}
	if !slices.Equal(log, want) {
		t.Errorf("second-round calls %v, want %v", log, want)
	}
}
