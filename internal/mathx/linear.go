package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned by SolveInPlace when the coefficient matrix is
// singular (or numerically so close to singular that elimination fails).
var ErrSingular = errors.New("mathx: singular matrix")

// errShape and errShapeMany are the solves' dimension errors,
// preallocated so the hot paths format nothing.
var (
	errShape     = errors.New("mathx: SolveInPlace needs len(m) == n*n and len(x) == n == len(rhs) > 0")
	errShapeMany = errors.New("mathx: SolveManyInPlace needs k > 0, len(b) == n*k > 0 and len(m) == n*n")
)

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

// SolveManyInPlace solves A·X = B for the n×n matrix A held row-major in
// m and the n×k right-hand sides B held row-major in b (n = len(b)/k),
// overwriting b with X and allocating nothing. It overwrites m with the
// eliminated upper triangle.
//
// It is SolveInPlace with k right-hand sides: one forward elimination
// with the same pivot rule, 1e-13 singular threshold, physical row swaps
// and skipped zero multipliers carries all k columns of B, and the
// back-substitution runs each column in SolveInPlace's order. Column c
// of X therefore has exactly the bits SolveInPlace returns for column c
// of B (a NaN's sign and payload aside, which the compiled instruction
// order decides), and the pivots, hence the ErrSingular outcome, are
// those SolveInPlace takes on the same A whatever B is.
//
//cloudmedia:hotpath
func SolveManyInPlace(m, b []float64, k int) error {
	if k <= 0 || len(b) == 0 || len(b)%k != 0 {
		return errShapeMany
	}
	n := len(b) / k
	if len(m) != n*n {
		return errShapeMany
	}
	for col := 0; col < n; col++ {
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
			bC, bP := b[col*k:(col+1)*k], b[pivot*k:(pivot+1)*k]
			for c := range bC {
				bC[c], bP[c] = bP[c], bC[c]
			}
		}
		rowC, bC := m[col*n:(col+1)*n], b[col*k:(col+1)*k]
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
			bR := b[r*k : (r+1)*k]
			for c := range bR {
				bR[c] -= f * bC[c]
			}
		}
	}

	for i := n - 1; i >= 0; i-- {
		row, bI := m[i*n:(i+1)*n], b[i*k:(i+1)*k]
		for c := i + 1; c < n; c++ {
			f, xC := row[c], b[c*k:(c+1)*k]
			for q := range bI {
				bI[q] -= f * xC[q]
			}
		}
		for q := range bI {
			bI[q] /= row[i]
		}
	}
	return nil
}
