package fluid

import (
	"fmt"

	"cloudmedia/internal/queueing"
)

// feed implements sim.Feed with fractional flow accumulators: where the
// event engine counts whole arrivals and transitions, the fluid engine
// accumulates expected flows directly, so the controller sees exact
// per-interval rates with no rounding noise.
//
// The kernel keeps two sums per source chunk i instead of a J×J cell
// accumulator: the completion flow Cᵢ and the jump flow Uᵢ that left
// chunk i over the interval. Completions follow row i of the constant
// transfer matrix P and jumps spread uniformly, so Matrix rebuilds the
// observed cells once per read as Tᵢₖ = Pᵢₖ·Cᵢ + Uᵢ/J and the row's
// departures as max(Cᵢ·(1−rowSumᵢ), 0). That equals the per-step cell
// accumulation up to the order of the additions, a relative difference
// that TestFeedMatrixMatchesReference bounds by feedMatrixTol.
type feed struct {
	chunks    int
	arrivals  float64
	completed []float64               // completed[i]: Cᵢ, flow that finished chunk i
	jumped    []float64               // jumped[i]: Uᵢ, flow that jumped away from chunk i
	trans     []float64               // P row-major, trans[i*chunks+k]; shared with the backend, read-only
	rowSum    []float64               // Σₖ Pᵢₖ; shared with the backend, read-only
	matrix    queueing.TransferMatrix // Matrix's result, rebuilt in place on every call
}

// emptyRowMass is the observed row mass at or below which Matrix takes
// the fallback row.
const emptyRowMass = 1e-12

func newFeed(chunks int, trans, rowSum []float64) *feed {
	return &feed{
		chunks:    chunks,
		completed: make([]float64, chunks),
		jumped:    make([]float64, chunks),
		trans:     trans,
		rowSum:    rowSum,
	}
}

// ArrivalRate returns the accumulated arrival flow divided by the
// interval length.
func (f *feed) ArrivalRate(intervalSeconds float64) (float64, error) {
	if intervalSeconds <= 0 {
		return 0, fmt.Errorf("fluid: non-positive interval %v", intervalSeconds)
	}
	return f.arrivals / intervalSeconds, nil
}

// Matrix returns the empirical transfer matrix from the accumulated
// flows; rows with (numerically) no observed mass fall back to the
// corresponding row of fallback, mirroring viewing.Estimator.Matrix. The
// matrix is the feed's own storage, valid until the next Matrix call.
func (f *feed) Matrix(fallback queueing.TransferMatrix) (queueing.TransferMatrix, error) {
	if fallback != nil {
		if fallback.Size() != f.chunks {
			return nil, fmt.Errorf("fluid: fallback size %d != chunks %d", fallback.Size(), f.chunks)
		}
		if err := fallback.Validate(); err != nil {
			return nil, fmt.Errorf("fluid: fallback: %w", err)
		}
	}
	if f.matrix == nil {
		f.matrix = queueing.NewTransferMatrix(f.chunks)
	}
	p := f.matrix
	fJ := float64(f.chunks)
	for i := 0; i < f.chunks; i++ {
		row := p[i]
		comp := f.completed[i]
		per := f.jumped[i] / fJ
		total := max(comp*(1-f.rowSum[i]), 0)
		for k, pk := range f.trans[i*f.chunks : (i+1)*f.chunks] {
			v := pk*comp + per
			row[k] = v
			total += v
		}
		if total <= emptyRowMass {
			if fallback != nil {
				copy(row, fallback[i])
			} else {
				clear(row)
			}
			continue
		}
		for k := range row {
			row[k] /= total
		}
	}
	return p, nil
}

// Reset clears the accumulated flows, starting a new interval.
func (f *feed) Reset() {
	f.arrivals = 0
	clear(f.completed)
	clear(f.jumped)
}
