package mathx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic reference values for the Erlang-B formula.
	tests := []struct {
		m    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{5, 3, 0.110054},
		{10, 5, 0.018385},
	}
	for _, tc := range tests {
		got := ErlangB(tc.m, tc.a)
		if !ApproxEqual(got, tc.want, 1e-4) {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", tc.m, tc.a, got, tc.want)
		}
	}
}

func TestErlangCSingleServerMatchesMM1(t *testing.T) {
	// For m = 1, Erlang-C reduces to the M/M/1 delay probability ρ.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); !ApproxEqual(got, rho, 1e-12) {
			t.Errorf("ErlangC(1, %v) = %v, want %v", rho, got, rho)
		}
	}
}

func TestErlangCBounds(t *testing.T) {
	if got := ErlangC(5, 0); got != 0 {
		t.Errorf("ErlangC(5, 0) = %v, want 0", got)
	}
	if got := ErlangC(3, 3); got != 1 {
		t.Errorf("ErlangC at saturation = %v, want 1", got)
	}
	if got := ErlangC(3, 5); got != 1 {
		t.Errorf("ErlangC overloaded = %v, want 1", got)
	}
}

func TestNewMMmValidation(t *testing.T) {
	if _, err := NewMMm(-1, 1, 1); err == nil {
		t.Error("negative λ: want error")
	}
	if _, err := NewMMm(1, 0, 1); err == nil {
		t.Error("zero µ: want error")
	}
	if _, err := NewMMm(1, 1, 0); err == nil {
		t.Error("zero m: want error")
	}
	if _, err := NewMMm(2, 1, 2); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated queue: err = %v, want ErrUnstable", err)
	}
}

func TestMM1MatchesClosedForm(t *testing.T) {
	// M/M/1: E[n] = ρ/(1−ρ), E[T] = 1/(µ−λ).
	lambda, mu := 0.6, 1.0
	q, err := NewMMm(lambda, mu, 1)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	rho := lambda / mu
	if got, want := q.MeanJobs(), rho/(1-rho); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("MeanJobs = %v, want %v", got, want)
	}
	if got, want := q.MeanSojourn(), 1/(mu-lambda); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("MeanSojourn = %v, want %v", got, want)
	}
}

func TestMMmLittlesLaw(t *testing.T) {
	q, err := NewMMm(7, 1.5, 6)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	if got, want := q.MeanJobs(), q.Lambda*q.MeanSojourn(); !ApproxEqual(got, want, 1e-10) {
		t.Errorf("Little's law violated: E[n]=%v λE[T]=%v", got, want)
	}
}

func TestMMmStateProbabilitiesSumToOne(t *testing.T) {
	q, err := NewMMm(4, 1, 6)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	var sum float64
	for k := 0; k < 300; k++ {
		sum += q.stateProbability(k)
	}
	if !ApproxEqual(sum, 1, 1e-9) {
		t.Errorf("state probabilities sum to %v, want 1", sum)
	}
}

func TestMMmMeanJobsMatchesStateSum(t *testing.T) {
	// E[n] from the closed form must agree with Σ k·p(k) — this is exactly
	// the paper's Eqn. (3) versus our Erlang-C shortcut.
	q, err := NewMMm(5, 1.2, 7)
	if err != nil {
		t.Fatalf("NewMMm: %v", err)
	}
	var byState float64
	for k := 0; k < 500; k++ {
		byState += float64(k) * q.stateProbability(k)
	}
	if got := q.MeanJobs(); !ApproxEqual(got, byState, 1e-6) {
		t.Errorf("MeanJobs=%v, Σk·p(k)=%v", got, byState)
	}
}

func TestMinServersForSojourn(t *testing.T) {
	// λ=10/s, µ=1/s: need at least 11 servers for stability.
	q, err := MinServersForSojourn(10, 1, 1.5, 1000)
	if err != nil {
		t.Fatalf("MinServersForSojourn: %v", err)
	}
	m := q.Servers
	if m < 11 {
		t.Errorf("m = %d, want at least 11 (stability)", m)
	}
	if q.MeanSojourn() > 1.5 {
		t.Errorf("sojourn %v exceeds target at m=%d", q.MeanSojourn(), m)
	}
	if m > 11 {
		// Minimality: one fewer server must miss the target (or be unstable).
		prev, err := NewMMm(10, 1, m-1)
		if err == nil && prev.MeanSojourn() <= 1.5 {
			t.Errorf("m=%d not minimal: m-1 already meets target", m)
		}
	}
}

func TestMinServersForSojournZeroLoad(t *testing.T) {
	q, err := MinServersForSojourn(0, 1, 2, 10)
	if err != nil {
		t.Fatalf("MinServersForSojourn: %v", err)
	}
	want, err := NewMMm(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q != want {
		t.Errorf("zero load sized %+v, want %+v", q, want)
	}
}

func TestMinServersForSojournUnreachable(t *testing.T) {
	// Service time 1/µ = 10 alone exceeds target 1: no m works.
	if _, err := MinServersForSojourn(1, 0.1, 1, 100); err == nil {
		t.Error("want error when service time exceeds target")
	}
	// Bound too small to stabilize the queue.
	if _, err := MinServersForSojourn(1000, 1, 2000, 5); err == nil {
		t.Error("want error when maxServers below stability threshold")
	}
}

// TestMinServersProperty: the returned queue is always stable, meets the
// target, and is minimal.
func TestMinServersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambda := 0.5 + r.Float64()*30
		mu := 0.5 + r.Float64()*3
		target := 1/mu + r.Float64()*5 // always reachable
		q, err := MinServersForSojourn(lambda, mu, target, 100000)
		if err != nil || q.MeanSojourn() > target+1e-9 {
			return false
		}
		if q.Servers == 1 {
			return true
		}
		prev, err := NewMMm(lambda, mu, q.Servers-1)
		if err != nil {
			return true // m−1 unstable → minimal
		}
		return prev.MeanSojourn() > target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// restartSearch is the sizing search as first written, kept as the test
// oracle: every candidate m restarts the Erlang-B recurrence from k = 1
// through NewMMm.
func restartSearch(lambda, mu, target float64, maxServers int) (int, error) {
	switch {
	case lambda < 0:
		return 0, fmt.Errorf("mathx: negative arrival rate %v", lambda)
	case mu <= 0:
		return 0, fmt.Errorf("mathx: non-positive service rate %v", mu)
	case target <= 0:
		return 0, fmt.Errorf("mathx: non-positive sojourn target %v", target)
	case maxServers <= 0:
		return 0, fmt.Errorf("mathx: non-positive server bound %d", maxServers)
	}
	if lambda == 0 {
		if 1/mu <= target {
			return 1, nil
		}
		return 0, fmt.Errorf("mathx: service time 1/µ=%v exceeds target %v", 1/mu, target)
	}
	if 1/mu > target {
		return 0, fmt.Errorf("mathx: service time 1/µ=%v exceeds target %v", 1/mu, target)
	}
	start := int(math.Floor(lambda/mu)) + 1
	if start < 1 {
		start = 1
	}
	for m := start; m <= maxServers; m++ {
		q, err := NewMMm(lambda, mu, m)
		if err != nil {
			continue
		}
		if q.MeanSojourn() <= target {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mathx: no m ≤ %d meets sojourn target %v (λ=%v µ=%v)", maxServers, target, lambda, mu)
}

// Below seriesThreshold the incremental search must reproduce the
// restart oracle exactly: the same m, and a queue == NewMMm(λ, µ, m) in
// every field, down to the last bit of the Erlang-C probability.
func TestIncrementalSearchBitIdenticalBelowThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 0; n < 2000; n++ {
		mu := 0.05 + r.Float64()*4
		a := r.Float64() * seriesThreshold
		if n%4 == 0 {
			a = r.Float64() * 20 // the paper-scale loads
		}
		lambda := a * mu
		target := (1 + r.Float64()*r.Float64()*3) / mu // tight to loose
		maxServers := 100000
		if n%10 == 0 {
			maxServers = int(a) + 1 + r.Intn(4) // some searches hit the bound
		}
		want, wantErr := restartSearch(lambda, mu, target, maxServers)
		got, err := MinServersForSojourn(lambda, mu, target, maxServers)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("λ=%v µ=%v T=%v max=%d: err %v, oracle err %v", lambda, mu, target, maxServers, err, wantErr)
		}
		if err != nil {
			continue
		}
		ref, rerr := NewMMm(lambda, mu, want)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got != ref {
			t.Fatalf("λ=%v µ=%v T=%v: sized %+v, oracle %+v", lambda, mu, target, got, ref)
		}
	}
}

// Above seriesThreshold the series seed must agree with the exact
// recurrence to 1e-12 relative error, and the sized m must match the
// restart oracle on every sampled load.
func TestSeriesMatchesRecurrenceAboveThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	worst := 0.0
	for n := 0; n < 200; n++ {
		a := seriesThreshold * math.Pow(200, r.Float64()) // log-uniform over [1e3, 2e5]
		for _, m := range []int{int(a) + 1, int(a) + 1 + r.Intn(int(math.Sqrt(a))*4+1)} {
			exact := ErlangB(m, a)
			if rel := math.Abs(erlangBSeries(m, a)-exact) / exact; rel > worst {
				worst = rel
			}
		}
	}
	if worst > 1e-12 {
		t.Fatalf("series vs recurrence: worst relative error %.3g > 1e-12", worst)
	}
	t.Logf("series vs recurrence: worst relative error %.3g", worst)

	for n := 0; n < 20; n++ {
		mu := 0.5 + r.Float64()*2
		a := seriesThreshold * math.Pow(200, r.Float64())
		lambda := a * mu
		target := (1 + r.Float64()*r.Float64()*0.05) / mu
		want, wantErr := restartSearch(lambda, mu, target, 300000)
		got, err := MinServersForSojourn(lambda, mu, target, 300000)
		if wantErr != nil || err != nil {
			t.Fatalf("λ=%v µ=%v T=%v: err %v, oracle err %v", lambda, mu, target, err, wantErr)
		}
		if got.Servers != want {
			t.Fatalf("λ=%v µ=%v T=%v: m=%d, oracle m=%d", lambda, mu, target, got.Servers, want)
		}
	}
}

// Below the threshold the series still holds to the recurrence: with a
// small offered load it runs to its last term (k = m) before the cut, so
// every server count m ≡ 0…3 mod 4 also exercises the loop that finishes
// the terms the four-term blocks leave.
func TestSeriesMatchesRecurrenceAtSmallLoads(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for n := 0; n < 200; n++ {
		a := 0.01 + 60*r.Float64()
		for m := int(a) + 1; m <= int(a)+12; m++ {
			exact := ErlangB(m, a)
			if rel := math.Abs(erlangBSeries(m, a)-exact) / exact; !(rel <= 1e-12) {
				t.Fatalf("B(%d, %v): series %v, recurrence %v (relative %.3g)", m, a, erlangBSeries(m, a), exact, rel)
			}
		}
	}
}

// The error paths report exactly what the restart search reported.
func TestSizingErrorsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name               string
		lambda, mu, target float64
		maxServers         int
	}{
		{"negative λ", -1, 1, 1, 10},
		{"zero µ", 1, 0, 1, 10},
		{"zero target", 1, 1, 0, 10},
		{"zero bound", 1, 1, 2, 0},
		{"zero load, service too slow", 0, 0.1, 1, 10},
		{"service too slow", 1, 0.1, 1, 100},
		{"start above bound", 1000, 1, 2000, 5},
		{"start above bound, series", 5e4, 1, 2000, 4e4},
		{"bound reached", 10, 1, 1.0001, 11},
	} {
		_, want := restartSearch(tc.lambda, tc.mu, tc.target, tc.maxServers)
		_, got := MinServersForSojourn(tc.lambda, tc.mu, tc.target, tc.maxServers)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: err %v, oracle err %v", tc.name, got, want)
		}
	}
}

func TestSojournMonotoneInServers(t *testing.T) {
	prev := math.Inf(1)
	for m := 4; m <= 20; m++ {
		q, err := NewMMm(3.5, 1, m)
		if err != nil {
			t.Fatalf("NewMMm(%d): %v", m, err)
		}
		if s := q.MeanSojourn(); s > prev+1e-12 {
			t.Errorf("sojourn not monotone: m=%d gives %v > %v", m, s, prev)
		} else {
			prev = s
		}
	}
}

// BenchmarkSizeForSojourn measures one M/M/m sizing search at offered
// loads a = λ/µ of 10 (paper scale), 1e3 (the series threshold) and 1e5
// (the 100M-viewer day), with that day's µ = 1/15 and T₀ = 75 s.
func BenchmarkSizeForSojourn(b *testing.B) {
	const mu, target = 1.0 / 15, 75
	for _, bc := range []struct {
		name string
		a    float64
	}{
		{"a=10", 10.3},
		{"a=1e3", 1000.3},
		{"a=1e5", 100000.3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var q MMm
			for i := 0; i < b.N; i++ {
				var err error
				if q, err = MinServersForSojourn(bc.a*mu, mu, target, 1_000_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(q.Servers), "servers")
		})
	}
}

// stateProbability returns p(k), the equilibrium probability of exactly k
// jobs in the system (Eqn. (2) of the paper): the state-by-state reference
// the closed-form MeanJobs is held to.
func (q MMm) stateProbability(k int) float64 {
	if k < 0 {
		return 0
	}
	p0 := q.emptyProbability()
	a := q.offered
	m := q.Servers
	if k <= m {
		// p0 · a^k / k!  computed incrementally to avoid overflow.
		p := p0
		for i := 1; i <= k; i++ {
			p *= a / float64(i)
		}
		return p
	}
	// p(m) · (a/m)^(k−m)
	pm := p0
	for i := 1; i <= m; i++ {
		pm *= a / float64(i)
	}
	return pm * math.Pow(a/float64(m), float64(k-m))
}

// emptyProbability returns p(0) using the standard M/M/m normalization.
func (q MMm) emptyProbability() float64 {
	a := q.offered
	m := q.Servers
	sum := 0.0
	term := 1.0 // a^k/k! for k = 0
	for k := 0; k < m; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	// term is now a^m/m!; add the waiting-tail mass a^m/m! · m/(m−a).
	sum += term * float64(m) / (float64(m) - a)
	return 1 / sum
}
