package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -4}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if x[0] != 3 || x[1] != -4 {
		t.Errorf("got %v, want [3 -4]", x)
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !ApproxEqual(x[0], 1, 1e-12) || !ApproxEqual(x[1], 3, 1e-12) {
		t.Errorf("got %v, want [1 3]", x)
	}
}

func TestSolveLinearRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{7, 9}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if !ApproxEqual(x[0], 9, 1e-12) || !ApproxEqual(x[1], 7, 1e-12) {
		t.Errorf("got %v, want [9 7]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system: want error")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("rhs mismatch: want error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("ragged row: want error")
	}
}

func TestSolveLinearDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatalf("SolveLinear: %v", err)
	}
	if a[0][0] != 2 || a[1][1] != 3 || b[0] != 5 || b[1] != 10 {
		t.Errorf("inputs mutated: a=%v b=%v", a, b)
	}
}

// TestSolveLinearProperty verifies A·x = b holds for random diagonally
// dominant systems (which are guaranteed nonsingular).
func TestSolveLinearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			var rowSum float64
			for j := range a[i] {
				a[i][j] = r.Float64()*2 - 1
				rowSum += absf(a[i][j])
			}
			a[i][i] += rowSum + 1 // diagonal dominance
			b[i] = r.Float64()*20 - 10
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMatVec(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	got := matVec(a, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Errorf("matVec = %v, want [17 39]", got)
	}
}

// matVec returns A·x for a dense matrix A.
func matVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// residual returns the max-norm of A·x − b.
func residual(a [][]float64, x, b []float64) float64 {
	ax := matVec(a, x)
	var worst float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
