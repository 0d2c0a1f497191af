package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned by SolveInPlace when the coefficient matrix is
// singular (or numerically so close to singular that elimination fails).
var ErrSingular = errors.New("mathx: singular matrix")

// errShape is SolveInPlace's dimension error, preallocated so the hot
// path formats nothing.
var errShape = errors.New("mathx: SolveInPlace needs len(m) == n*n and len(x) == n == len(rhs) > 0")

// SolveInPlace solves A·x = rhs for the n×n matrix A held row-major in m
// (n = len(rhs)) and writes the solution to x, allocating nothing. It
// overwrites m with the eliminated upper triangle and rhs with the
// transformed right-hand side, so callers reuse both as workspace.
//
// The elimination pivots on the largest magnitude in the column, reports
// ErrSingular below 1e-13, swaps rows physically, skips rows whose
// multiplier is exactly zero, and back-substitutes in descending row
// order. Tests hold it bit for bit to the [][]float64 reference
// elimination (testutil.ReferenceSolveLinear), so keep every
// floating-point operation and its order.
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
