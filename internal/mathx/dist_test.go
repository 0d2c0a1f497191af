package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfWeights(t *testing.T) {
	w, err := ZipfWeights(5, 1)
	if err != nil {
		t.Fatalf("ZipfWeights: %v", err)
	}
	if len(w) != 5 {
		t.Fatalf("len = %d, want 5", len(w))
	}
	if !ApproxEqual(Sum(w), 1, 1e-12) {
		t.Errorf("weights sum to %v, want 1", Sum(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Errorf("weights not decreasing at %d: %v > %v", i, w[i], w[i-1])
		}
	}
	// For s=1: w1/w2 = 2.
	if !ApproxEqual(w[0]/w[1], 2, 1e-12) {
		t.Errorf("w0/w1 = %v, want 2", w[0]/w[1])
	}
}

func TestZipfWeightsUniformAtZeroExponent(t *testing.T) {
	w, err := ZipfWeights(4, 0)
	if err != nil {
		t.Fatalf("ZipfWeights: %v", err)
	}
	for _, x := range w {
		if !ApproxEqual(x, 0.25, 1e-12) {
			t.Errorf("weight %v, want 0.25", x)
		}
	}
}

func TestZipfWeightsErrors(t *testing.T) {
	if _, err := ZipfWeights(0, 1); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := ZipfWeights(3, -1); err == nil {
		t.Error("negative s: want error")
	}
}

func TestBoundedParetoValidation(t *testing.T) {
	if _, err := NewBoundedPareto(0, 1, 3); err == nil {
		t.Error("lo=0: want error")
	}
	if _, err := NewBoundedPareto(2, 1, 3); err == nil {
		t.Error("hi<lo: want error")
	}
	if _, err := NewBoundedPareto(1, 2, 0); err == nil {
		t.Error("shape=0: want error")
	}
}

func TestBoundedParetoSamplesInRange(t *testing.T) {
	p, err := NewBoundedPareto(180e3, 10e6, 3) // the paper's peer uplink distribution
	if err != nil {
		t.Fatalf("NewBoundedPareto: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := p.Sample(rng)
		if x < p.Lo || x > p.Hi {
			t.Fatalf("sample %v outside [%v, %v]", x, p.Lo, p.Hi)
		}
	}
}

func TestBoundedParetoEmpiricalMeanMatchesAnalytic(t *testing.T) {
	p, err := NewBoundedPareto(1, 100, 3)
	if err != nil {
		t.Fatalf("NewBoundedPareto: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = p.Sample(rng)
	}
	if got := Sum(xs) / float64(len(xs)); !ApproxEqual(got, p.Mean(), 0.02) {
		t.Errorf("empirical mean %v vs analytic %v", got, p.Mean())
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = Exponential(rng, 15)
	}
	if got := Sum(xs) / float64(len(xs)); !ApproxEqual(got, 15, 0.05) {
		t.Errorf("empirical mean %v, want ≈15", got)
	}
	if Exponential(rng, 0) != 0 {
		t.Error("zero mean should give 0")
	}
}

func TestNextNHPPArrivalRespectsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Rate 4 on [0,10): expected ~40 arrivals.
	rate := func(t float64) float64 { return 4 }
	var count int
	now := 0.0
	for {
		next := NextNHPPArrival(rng, now, 10, 8, rate)
		if math.IsInf(next, 1) {
			break
		}
		if next <= now || next >= 10 {
			t.Fatalf("arrival %v outside (now, horizon)", next)
		}
		now = next
		count++
	}
	if count < 20 || count > 70 {
		t.Errorf("count = %d, want ≈40", count)
	}
}

func TestNextNHPPArrivalZeroEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if !math.IsInf(NextNHPPArrival(rng, 0, 10, 0, func(float64) float64 { return 1 }), 1) {
		t.Error("zero envelope should give +Inf")
	}
}

// Property: ZipfWeights always sums to 1 and is non-increasing.
func TestZipfWeightsProperty(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%50) + 1
		s := float64(sRaw%30) / 10
		w, err := ZipfWeights(n, s)
		if err != nil {
			return false
		}
		if !ApproxEqual(Sum(w), 1, 1e-9) {
			return false
		}
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
