package fluid

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cloudmedia/internal/queueing"
)

// feedMatrixTol bounds the relative difference, per cell, between the
// feed's estimated transfer matrix and the reference one. The two add the
// same non-negative flows in a different order: the reference adds each
// step's cell flow Pᵢₖ·cᵢ + uᵢ/J into the cell, the feed sums cᵢ and uᵢ
// over the interval and multiplies once. A sum of n non-negative terms
// rounds to within about n·ε relative, so over an n-step interval a cell
// and its row total each move by a few n·ε and the normalized cell by
// their sum. 1e-12 covers intervals of several thousand steps; a control
// round of an hour is 360 steps of 10 s.
const feedMatrixTol = 1e-12

// refMatrix estimates the transfer matrix from a reference accumulator
// the way the feed did when it accumulated every cell each step: each
// row is normalized by its observed mass, departures included, and a row
// with (numerically) no mass takes the fallback row. It also returns
// each row's total.
func refMatrix(r refFeed, J int, fallback queueing.TransferMatrix) (queueing.TransferMatrix, []float64) {
	p := queueing.NewTransferMatrix(J)
	totals := make([]float64, J)
	for i := 0; i < J; i++ {
		row := r.transitions[i*J : (i+1)*J]
		total := r.departures[i]
		for _, v := range row {
			total += v
		}
		totals[i] = total
		if total <= emptyRowMass {
			if fallback != nil {
				copy(p[i], fallback[i])
			}
			continue
		}
		for k, v := range row {
			p[i][k] = v / total
		}
	}
	return p, totals
}

// distinctFallback is a valid fallback matrix whose cells no estimated
// row reproduces by accident, so a row equal to it took the fallback.
func distinctFallback(J int) queueing.TransferMatrix {
	p := queueing.NewTransferMatrix(J)
	for i := range p {
		for k := range p[i] {
			p[i][k] = 0.7 / float64(J) * (1 + 1e-3*float64(i+k+1))
		}
	}
	return p
}

// matrixMismatch compares the feed's matrix got with the reference want
// (whose row totals are refTotals), both built with fallback. It returns
// "" when every row made the same fallback choice and every estimated
// cell is within feedMatrixTol of the reference, relative to the
// reference cell. A row whose reference total lies within the tolerance
// of the fallback threshold may fall either side, so only its cells'
// range is checked.
func matrixMismatch(got, want queueing.TransferMatrix, refTotals []float64, fallback queueing.TransferMatrix) string {
	for i := range want {
		refFell := refTotals[i] <= emptyRowMass
		gotFell := true
		for k, v := range got[i] {
			gotFell = gotFell && v == fallback[i][k]
		}
		if math.Abs(refTotals[i]-emptyRowMass) <= feedMatrixTol*emptyRowMass {
			for k, v := range got[i] {
				if !(v >= 0 && v <= 1) {
					return fmt.Sprintf("row %d cell %d = %v outside [0,1]", i, k, v)
				}
			}
			continue
		}
		if refFell != gotFell {
			return fmt.Sprintf("row %d: fallback %v, reference fallback %v (reference total %v)",
				i, gotFell, refFell, refTotals[i])
		}
		if refFell {
			continue
		}
		for k, v := range got[i] {
			if w := want[i][k]; !(math.Abs(v-w) <= feedMatrixTol*w) {
				return fmt.Sprintf("row %d cell %d = %v, reference %v (relative %v)",
					i, k, v, w, math.Abs(v-w)/w)
			}
		}
	}
	return ""
}

// FuzzFeedMatrix holds feed.Matrix to the reference estimate on random
// per-step completion and jump sequences: seed draws a transfer matrix
// (sparse, dense, all-zero and stochastic rows) for J = 1…20 chunks, and
// every three bytes of steps are one step's completion and jump flows
// out of one chunk, over four decades of magnitude and including zeros.
// A zero byte ends the interval: the matrix is compared, within
// feedMatrixTol and with the same fallback choice per row, and both
// accumulators reset. The last interval is compared at the end.
func FuzzFeedMatrix(f *testing.F) {
	f.Add(uint64(1), uint8(7), []byte{0x13, 200, 40, 0x21, 10, 0, 0x02, 0, 90})
	f.Add(uint64(2), uint8(0), []byte{0x80, 1, 1, 0x81, 255, 255})
	f.Add(uint64(3), uint8(19), []byte{0x45, 3, 0, 0, 0, 0, 0x45, 0, 3, 0xff, 77, 12})
	f.Fuzz(func(t *testing.T, seed uint64, jSel uint8, steps []byte) {
		J := 1 + int(jSel)%20
		p := randomTransfer(rand.New(rand.NewPCG(seed, 0)), J)
		trans := make([]float64, J*J)
		rowSum := make([]float64, J)
		for i := range p {
			for k, v := range p[i] {
				if v > 0 {
					trans[i*J+k] = v
					rowSum[i] += v
				}
			}
		}
		fd := newFeed(J, trans, rowSum)
		ref := refFeed{make([]float64, J*J), make([]float64, J)}
		fallback := distinctFallback(J)
		if len(steps) > 3*256 {
			steps = steps[:3*256]
		}
		check := func() {
			got, err := fd.Matrix(fallback)
			if err != nil {
				t.Fatal(err)
			}
			want, totals := refMatrix(ref, J, fallback)
			if msg := matrixMismatch(got, want, totals, fallback); msg != "" {
				t.Fatalf("J=%d: %s", J, msg)
			}
		}
		for ; len(steps) >= 3; steps = steps[3:] {
			if steps[0] == 0 {
				check()
				fd.Reset()
				ref.reset()
				continue
			}
			i := int(steps[0]) % J
			scale := math.Pow(10, float64(steps[0]>>6)-2)
			comp := float64(steps[1]) * scale
			jump := float64(steps[2]) * scale / 16
			// The kernel's row pass: each sum takes only positive flows.
			if comp > 0 {
				fd.completed[i] += comp
			}
			if jump > 0 {
				fd.jumped[i] += jump
			}
			ref.add(p, rowSum[i], i, comp, jump)
		}
		check()
	})
}
