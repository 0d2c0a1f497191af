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
// The transition accumulator is a flat row-major array: one allocation at
// construction, unit-stride accumulation and resets. Cell (i,j) lives at
// transitions[i*chunks+j], matching the engine's channel*J+j state layout.
type feed struct {
	chunks      int
	arrivals    float64
	transitions []float64               // transitions[i*chunks+j]: flow that finished chunk i then fetched j
	departures  []float64               // departures[i]: flow that finished chunk i then left
	matrix      queueing.TransferMatrix // Matrix's result, rebuilt in place on every call
}

func newFeed(chunks int) *feed {
	return &feed{
		chunks:      chunks,
		transitions: make([]float64, chunks*chunks),
		departures:  make([]float64, chunks),
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
	for i := 0; i < f.chunks; i++ {
		row := f.transitions[i*f.chunks : (i+1)*f.chunks]
		total := f.departures[i]
		for _, v := range row {
			total += v
		}
		if total <= 1e-12 {
			if fallback != nil {
				copy(p[i], fallback[i])
			} else {
				clear(p[i])
			}
			continue
		}
		for j, v := range row {
			p[i][j] = v / total
		}
	}
	return p, nil
}

// Reset clears the accumulated flows, starting a new interval.
func (f *feed) Reset() {
	f.arrivals = 0
	for i := range f.transitions {
		f.transitions[i] = 0
	}
	for i := range f.departures {
		f.departures[i] = 0
	}
}
