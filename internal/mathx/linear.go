package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by SolveLinear when the coefficient matrix is
// singular (or numerically so close to singular that elimination fails).
var ErrSingular = errors.New("mathx: singular matrix")

// SolveLinear solves the dense linear system A·x = b using Gaussian
// elimination with partial pivoting and returns x.
//
// A must be square with len(A) == len(b); A and b are not modified.
// The chunk-transfer systems in this codebase have dimension J ≈ 20, so a
// direct O(n³) solve is both exact and cheap. SolveLinear validates the
// shape, copies A and b into one flat buffer (its only allocation), and
// runs SolveInPlace on it.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("mathx: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathx: dimension mismatch: %d rows, %d rhs entries", n, len(b))
	}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	// One buffer: the n×n matrix row-major, then the right-hand side,
	// then the solution (capped so appending to it cannot reach back).
	buf := make([]float64, n*n+2*n)
	m, rhs, x := buf[:n*n], buf[n*n:n*n+n], buf[n*n+n:n*n+2*n:n*n+2*n]
	for i, row := range a {
		copy(m[i*n:(i+1)*n], row)
	}
	copy(rhs, b)
	if err := SolveInPlace(m, rhs, x); err != nil {
		return nil, err
	}
	return x, nil
}

// errShape is SolveInPlace's dimension error, preallocated so the hot
// path formats nothing.
var errShape = errors.New("mathx: SolveInPlace needs len(m) == n*n and len(x) == n == len(rhs) > 0")

// SolveInPlace solves A·x = rhs for the n×n matrix A held row-major in m
// (n = len(rhs)) and writes the solution to x, allocating nothing. It
// overwrites m with the eliminated upper triangle and rhs with the
// transformed right-hand side, so callers reuse both as workspace.
//
// This is the single elimination behind SolveLinear: partial pivoting
// on the largest magnitude in the column, ErrSingular below 1e-13,
// physical row swaps, rows whose multiplier is exactly zero skipped, and
// back-substitution in descending row order. Tests hold it bit for bit
// to the [][]float64 reference elimination (testutil.ReferenceSolveLinear),
// so keep every floating-point operation and its order.
//
//cloudmedia:hotpath
func SolveInPlace(m, rhs, x []float64) error {
	n := len(rhs)
	if n == 0 || len(m) != n*n || len(x) != n {
		return errShape
	}
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r*n+col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-13 {
			return ErrSingular
		}
		if pivot != col {
			rowC, rowP := m[col*n:(col+1)*n], m[pivot*n:(pivot+1)*n]
			for c := range rowC {
				rowC[c], rowP[c] = rowP[c], rowC[c]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		rowC := m[col*n : (col+1)*n]
		inv := 1 / rowC[col]
		for r := col + 1; r < n; r++ {
			row := m[r*n : (r+1)*n]
			f := row[col] * inv
			if f == 0 {
				continue
			}
			row[col] = 0
			for c := col + 1; c < n; c++ {
				row[c] -= f * rowC[c]
			}
			rhs[r] -= f * rhs[col]
		}
	}

	for i := n - 1; i >= 0; i-- {
		row := m[i*n : (i+1)*n]
		sum := rhs[i]
		for c := i + 1; c < n; c++ {
			sum -= row[c] * x[c]
		}
		x[i] = sum / row[i]
	}
	return nil
}

// MatVec returns A·x for a dense matrix A.
func MatVec(a [][]float64, x []float64) []float64 {
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

// Residual returns the max-norm of A·x − b, used by tests and by callers
// that want to sanity-check a solve.
func Residual(a [][]float64, x, b []float64) float64 {
	ax := MatVec(a, x)
	var worst float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
