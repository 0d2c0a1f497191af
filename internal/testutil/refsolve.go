package testutil

import (
	"math"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
)

// ReferenceSolveLinear is the [][]float64 Gaussian elimination the
// linear solve ran before it moved onto flat storage (mathx.SolveInPlace),
// kept verbatim as the oracle for the bit-identity tests of
// mathx.SolveInPlace and of the traffic and Proposition-1 solves built on
// it. It copies A row by row, pivots on the largest magnitude, reports
// mathx.ErrSingular below 1e-13, swaps row slices, skips zero multipliers
// and back-substitutes.
// Inputs are assumed well-shaped (square, len(b) == len(a) > 0).
func ReferenceSolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i, row := range a {
		m[i] = make([]float64, n)
		copy(m[i], row)
	}
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r][col]); abs > maxAbs {
				maxAbs = abs
				pivot = r
			}
		}
		if maxAbs < 1e-13 {
			return nil, mathx.ErrSingular
		}
		if pivot != col {
			m[col], m[pivot] = m[pivot], m[col]
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := rhs[i]
		for c := i + 1; c < n; c++ {
			sum -= m[i][c] * x[c]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// SameBits reports whether two vectors are equal bit for bit: the
// equality the flat solves promise against their references.
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RandomSubstochastic returns a j×j transfer matrix with random entries
// whose rows each sum to at most 0.95, so every chunk has a departure
// probability and the traffic and Proposition-1 systems are nonsingular.
// Entries are drawn from next (e.g. a seeded rand.Rand's Float64).
func RandomSubstochastic(j int, next func() float64) queueing.TransferMatrix {
	p := queueing.NewTransferMatrix(j)
	for i := range p {
		var sum float64
		for k := range p[i] {
			p[i][k] = next()
			sum += p[i][k]
		}
		if sum == 0 {
			continue
		}
		scale := 0.95 * next() / sum
		for k := range p[i] {
			p[i][k] *= scale
		}
	}
	return p
}
