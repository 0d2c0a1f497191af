package mathx

import (
	"errors"
	"fmt"
)

// SolveLinear solves the dense linear system A·x = b using Gaussian
// elimination with partial pivoting and returns x: the [][]float64 entry
// point the linear-solve tests and FuzzSolveLinear drive SolveInPlace
// through.
//
// A must be square with len(A) == len(b); A and b are not modified.
// SolveLinear validates the shape, copies A and b into one flat buffer
// (its only allocation), and runs SolveInPlace on it.
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
