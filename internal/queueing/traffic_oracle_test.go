package queueing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/viewing"
)

// referenceSolveTraffic is the traffic solve as it was before the flat
// workspace: a freshly allocated [][]float64 (I − Pᵀ) solved by the
// reference elimination. Kept as the bit-identity oracle for the rates
// the Solver's equilibria carry.
func referenceSolveTraffic(p queueing.TransferMatrix, ext []float64) ([]float64, error) {
	j := p.Size()
	a := make([][]float64, j)
	for i := range a {
		a[i] = make([]float64, j)
		for k := 0; k < j; k++ {
			a[i][k] = -p[k][i]
		}
		a[i][i] += 1
	}
	lambda, err := testutil.ReferenceSolveLinear(a, ext)
	if err != nil {
		return nil, fmt.Errorf("queueing: traffic equations: %w", err)
	}
	for i, l := range lambda {
		if l < 0 {
			if l > -1e-9 {
				lambda[i] = 0
				continue
			}
			return nil, fmt.Errorf("queueing: negative arrival rate %v at queue %d (non-substochastic routing?)", l, i)
		}
	}
	return lambda, nil
}

// The Solver's arrival rates are the reference elimination's, bit for
// bit, on the paper's matrix and random substochastic ones.
func TestSolveTrafficMatchesReferenceBits(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var s queueing.Solver
	for _, j := range []int{1, 2, 3, 8, 20} {
		paper, err := viewing.PaperDefault(j)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testutil.ChannelConfig(j, 75)
		if j == 1 {
			cfg.EntryFirstChunk = 1
		}
		for trial := 0; trial < 40; trial++ {
			p := paper
			if trial > 0 {
				p = testutil.RandomSubstochastic(j, r.Float64)
			}
			lambda := 0.01 + 5*r.Float64()
			want, wantErr := referenceSolveTraffic(p, cfg.ExternalArrivals(lambda))
			eq, err := s.Solve(cfg, p, lambda, 0)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("J=%d trial %d: err = %v, reference err = %v", j, trial, err, wantErr)
			}
			if !testutil.SameBits(eq.ArrivalRates, want) {
				t.Fatalf("J=%d trial %d: rates %v, reference %v", j, trial, eq.ArrivalRates, want)
			}
		}
	}
}

// A singular routing (every viewer moves on, nobody leaves) must still
// surface the elimination's ErrSingular through the flat solve. With no
// arrivals the Solver skips its departure check and reaches the
// elimination.
func TestSolveTrafficSingularMatchesReference(t *testing.T) {
	p := queueing.TransferMatrix{{0, 1}, {1, 0}}
	_, wantErr := referenceSolveTraffic(p, []float64{0, 0})
	var s queueing.Solver
	_, err := s.Solve(testutil.ChannelConfig(2, 75), p, 0, 0)
	if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err = %v, reference err = %v", err, wantErr)
	}
}

// A Solver's steady traffic solve allocates nothing: the equilibrium
// views the solver's buffers.
func TestSolveTrafficAllocations(t *testing.T) {
	p, err := viewing.PaperDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.ChannelConfig(8, 75)
	var s queueing.Solver
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Solve(cfg, p, 0.25, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady Solver.Solve allocates %.1f times at J=8, want 0", allocs)
	}
}

// SolveWithInverse's one elimination gives the equilibrium Solve gives,
// bit for bit, and (I − Pᵀ)⁻¹ with the bits of a separate elimination of
// the same matrix against the identity; a singular matrix fails with
// Solve's error. A steady call allocates nothing.
func TestSolveWithInverseMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s queueing.Solver
	for _, j := range []int{1, 2, 3, 8, 20} {
		cfg := testutil.ChannelConfig(j, 75)
		if j == 1 {
			cfg.EntryFirstChunk = 1
		}
		for trial := 0; trial < 20; trial++ {
			p := testutil.RandomSubstochastic(j, r.Float64)
			lambda := 0.01 + 5*r.Float64()
			want, err := queueing.Solve(cfg, p, lambda, 0)
			if err != nil {
				t.Fatalf("J=%d trial %d: Solve: %v", j, trial, err)
			}
			got, inv, err := s.SolveWithInverse(cfg, p, lambda, 0)
			if err != nil {
				t.Fatalf("J=%d trial %d: SolveWithInverse: %v", j, trial, err)
			}
			if !testutil.SameBits(got.ArrivalRates, want.ArrivalRates) || !testutil.SameBits(got.MeanUsers, want.MeanUsers) ||
				!testutil.SameBits(got.Capacity, want.Capacity) || !testutil.SameBits(got.ViewerLoad, want.ViewerLoad) {
				t.Fatalf("J=%d trial %d: equilibrium differs from Solve's", j, trial)
			}
			m, ident := make([]float64, j*j), make([]float64, j*j)
			for q := 0; q < j; q++ {
				for c := 0; c < j; c++ {
					m[q*j+c] = -p[c][q]
				}
				m[q*j+q] += 1
				ident[q*j+q] = 1
			}
			if err := mathx.SolveManyInPlace(m, ident, j); err != nil {
				t.Fatal(err)
			}
			if !testutil.SameBits(inv, ident) {
				t.Fatalf("J=%d trial %d: inverse %v, separate elimination %v", j, trial, inv, ident)
			}
		}
	}
	closed := queueing.TransferMatrix{{0, 1}, {1, 0}}
	cfg := testutil.ChannelConfig(2, 75)
	_, wantErr := queueing.Solve(cfg, closed, 0, 0)
	if _, _, err := s.SolveWithInverse(cfg, closed, 0, 0); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("singular matrix: err = %v, Solve's %v", err, wantErr)
	}
	p, err := viewing.PaperDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg = testutil.ChannelConfig(8, 75)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := s.SolveWithInverse(cfg, p, 0.25, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady SolveWithInverse allocates %.1f times, want 0", allocs)
	}
}
