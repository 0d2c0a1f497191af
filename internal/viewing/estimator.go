package viewing

import (
	"fmt"

	"cloudmedia/internal/queueing"
)

// Departed is the sentinel destination passed to RecordTransition when a
// user leaves the channel after finishing a chunk.
const Departed = -1

// Estimator accumulates observed user behaviour in one channel over a
// provisioning interval and produces the (Λ, P) estimates the controller
// feeds into the queueing analysis for the next interval (Sec. V-B: "user
// arrival patterns in the previous time interval are used to predict the
// capacity demand in the next interval").
//
// Estimator is not safe for concurrent use; the simulator drives it from a
// single event loop, matching the single tracking server of the paper.
type Estimator struct {
	chunks      int
	arrivals    int
	transitions [][]int // transitions[i][j]: completed chunk i then fetched j
	departures  []int   // departures[i]: completed chunk i then left

	// matrix is the storage Matrix returns, rebuilt in place each call.
	matrix queueing.TransferMatrix
}

// NewEstimator returns an estimator for a channel with the given chunk count.
func NewEstimator(chunks int) (*Estimator, error) {
	if chunks <= 0 {
		return nil, fmt.Errorf("viewing: non-positive chunk count %d", chunks)
	}
	e := &Estimator{chunks: chunks, departures: make([]int, chunks)}
	e.transitions = make([][]int, chunks)
	for i := range e.transitions {
		e.transitions[i] = make([]int, chunks)
	}
	return e, nil
}

// RecordArrival notes one external user arrival to the channel.
func (e *Estimator) RecordArrival() { e.arrivals++ }

// RecordTransition notes that a user finished downloading chunk `from` and
// proceeded to chunk `to` (or left, if to == Departed). Out-of-range indices
// return an error rather than panicking so a buggy feed cannot crash the
// controller.
func (e *Estimator) RecordTransition(from, to int) error {
	if from < 0 || from >= e.chunks {
		return fmt.Errorf("viewing: transition source %d outside [0,%d)", from, e.chunks)
	}
	if to == Departed {
		e.departures[from]++
		return nil
	}
	if to < 0 || to >= e.chunks {
		return fmt.Errorf("viewing: transition destination %d outside [0,%d)", to, e.chunks)
	}
	e.transitions[from][to]++
	return nil
}

// ArrivalRate returns the estimated Poisson arrival rate Λ over an interval
// of the given length in seconds.
func (e *Estimator) ArrivalRate(intervalSeconds float64) (float64, error) {
	if intervalSeconds <= 0 {
		return 0, fmt.Errorf("viewing: non-positive interval %v", intervalSeconds)
	}
	return float64(e.arrivals) / intervalSeconds, nil
}

// Matrix returns the empirical transfer matrix. Rows with no observed
// completions fall back to the corresponding row of fallback (which must be
// a valid matrix of the same size); with a nil fallback, unobserved rows are
// all-departure. This keeps cold chunks provisionable from the prior when
// an interval saw no traffic on them.
//
// The matrix is the estimator's own storage, rebuilt in place: it stays
// valid until the next Matrix or Reset call, and callers must not modify
// it.
func (e *Estimator) Matrix(fallback queueing.TransferMatrix) (queueing.TransferMatrix, error) {
	if fallback != nil {
		if fallback.Size() != e.chunks {
			return nil, fmt.Errorf("viewing: fallback size %d != chunks %d", fallback.Size(), e.chunks)
		}
		if err := fallback.Validate(); err != nil {
			return nil, fmt.Errorf("viewing: fallback: %w", err)
		}
	}
	if e.matrix == nil {
		e.matrix = queueing.NewTransferMatrix(e.chunks)
	}
	p := e.matrix
	for i := 0; i < e.chunks; i++ {
		total := e.departures[i]
		for _, n := range e.transitions[i] {
			total += n
		}
		if total == 0 {
			if fallback != nil {
				copy(p[i], fallback[i])
			} else {
				clear(p[i])
			}
			continue
		}
		for j, n := range e.transitions[i] {
			p[i][j] = float64(n) / float64(total)
		}
	}
	return p, nil
}

// Reset clears all recorded observations, starting a new interval.
func (e *Estimator) Reset() {
	e.arrivals = 0
	for i := range e.transitions {
		for j := range e.transitions[i] {
			e.transitions[i][j] = 0
		}
		e.departures[i] = 0
	}
}
