package viewing

import (
	"math/rand"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
)

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0); err == nil {
		t.Error("zero chunks: want error")
	}
	e, err := NewEstimator(5)
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	if e.chunks != 5 {
		t.Errorf("chunks = %d, want 5", e.chunks)
	}
}

func TestEstimatorArrivalRate(t *testing.T) {
	e, _ := NewEstimator(3)
	for i := 0; i < 360; i++ {
		e.RecordArrival()
	}
	rate, err := e.ArrivalRate(3600)
	if err != nil {
		t.Fatalf("ArrivalRate: %v", err)
	}
	if !mathx.ApproxEqual(rate, 0.1, 1e-12) {
		t.Errorf("rate = %v, want 0.1/s", rate)
	}
	if _, err := e.ArrivalRate(0); err == nil {
		t.Error("zero interval: want error")
	}
}

func TestEstimatorMatrixFromObservations(t *testing.T) {
	e, _ := NewEstimator(3)
	// Chunk 0: 6 transitions to 1, 2 to 2, 2 departures → [0, 0.6, 0.2].
	for i := 0; i < 6; i++ {
		mustRecord(t, e, 0, 1)
	}
	for i := 0; i < 2; i++ {
		mustRecord(t, e, 0, 2)
	}
	for i := 0; i < 2; i++ {
		mustRecord(t, e, 0, Departed)
	}
	p, err := e.Matrix(nil)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if !mathx.ApproxEqual(p[0][1], 0.6, 1e-12) || !mathx.ApproxEqual(p[0][2], 0.2, 1e-12) {
		t.Errorf("row 0 = %v", p[0])
	}
	if !mathx.ApproxEqual(p.DepartureProbability(0), 0.2, 1e-12) {
		t.Errorf("departure(0) = %v, want 0.2", p.DepartureProbability(0))
	}
	// Unobserved rows with nil fallback are all-departure.
	if p.DepartureProbability(1) != 1 {
		t.Errorf("unobserved row should depart, got %v", p.DepartureProbability(1))
	}
}

func TestEstimatorMatrixFallback(t *testing.T) {
	e, _ := NewEstimator(3)
	mustRecord(t, e, 0, 1)
	fallback, err := Sequential(3, 0.5)
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	p, err := e.Matrix(fallback)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if p[0][1] != 1 {
		t.Errorf("observed row overridden: %v", p[0])
	}
	if p[1][2] != 0.5 {
		t.Errorf("fallback row not used: %v", p[1])
	}
}

func TestEstimatorMatrixFallbackErrors(t *testing.T) {
	e, _ := NewEstimator(3)
	if _, err := e.Matrix(queueing.NewTransferMatrix(2)); err == nil {
		t.Error("size mismatch: want error")
	}
	bad := queueing.TransferMatrix{{2, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if _, err := e.Matrix(bad); err == nil {
		t.Error("invalid fallback: want error")
	}
}

func TestEstimatorRecordTransitionErrors(t *testing.T) {
	e, _ := NewEstimator(3)
	if err := e.RecordTransition(-1, 0); err == nil {
		t.Error("negative source: want error")
	}
	if err := e.RecordTransition(3, 0); err == nil {
		t.Error("source out of range: want error")
	}
	if err := e.RecordTransition(0, 3); err == nil {
		t.Error("destination out of range: want error")
	}
	if err := e.RecordTransition(0, -2); err == nil {
		t.Error("destination -2: want error")
	}
}

func TestEstimatorReset(t *testing.T) {
	e, _ := NewEstimator(2)
	e.RecordArrival()
	mustRecord(t, e, 0, 1)
	e.Reset()
	if e.arrivals != 0 {
		t.Error("arrivals not reset")
	}
	p, err := e.Matrix(nil)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if p[0][1] != 0 {
		t.Error("transitions not reset")
	}
}

// TestEstimatorRecoversTrueMatrix: feed transitions sampled from a known P
// and verify the estimate converges to it.
func TestEstimatorRecoversTrueMatrix(t *testing.T) {
	truth, err := SequentialWithJumps(6, 0.9, 1.0/3)
	if err != nil {
		t.Fatalf("SequentialWithJumps: %v", err)
	}
	e, _ := NewEstimator(6)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60000; trial++ {
		from := rng.Intn(6)
		u := rng.Float64()
		to := Departed
		for j := 0; j < 6; j++ {
			u -= truth[from][j]
			if u <= 0 {
				to = j
				break
			}
		}
		mustRecord(t, e, from, to)
	}
	got, err := e.Matrix(nil)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if diff := got[i][j] - truth[i][j]; diff > 0.03 || diff < -0.03 {
				t.Errorf("P[%d][%d]: est %v vs truth %v", i, j, got[i][j], truth[i][j])
			}
		}
	}
}

func mustRecord(t *testing.T, e *Estimator, from, to int) {
	t.Helper()
	if err := e.RecordTransition(from, to); err != nil {
		t.Fatalf("RecordTransition(%d,%d): %v", from, to, err)
	}
}
