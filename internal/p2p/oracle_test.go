package p2p

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/viewing"
)

// referenceOwnersByQueue is ownersByQueue as it was before the flat
// workspace: one freshly allocated [][]float64 system and idx map per
// chunk, solved by the reference elimination. Kept as the bit-identity
// oracle.
func referenceOwnersByQueue(meanUsers []float64, p queueing.TransferMatrix) ([][]float64, error) {
	j := len(meanUsers)
	out := make([][]float64, j)
	for i := 0; i < j; i++ {
		out[i] = make([]float64, j)
		out[i][i] = meanUsers[i]
		if j == 1 {
			continue
		}
		n := j - 1
		idx := make([]int, 0, n)
		for q := 0; q < j; q++ {
			if q != i {
				idx = append(idx, q)
			}
		}
		a := make([][]float64, n)
		b := make([]float64, n)
		for r := 0; r < n; r++ {
			a[r] = make([]float64, n)
			for c := 0; c < n; c++ {
				a[r][c] = -p[idx[c]][idx[r]]
			}
			a[r][r] += 1
			b[r] = meanUsers[i] * p[i][idx[r]]
		}
		x, err := testutil.ReferenceSolveLinear(a, b)
		if err != nil {
			return nil, fmt.Errorf("p2p: proposition 1 for chunk %d: %w", i, err)
		}
		for r := 0; r < n; r++ {
			v := x[r]
			if v < 0 {
				if v < -1e-6 {
					return nil, fmt.Errorf("p2p: negative owner count %v for chunk %d in queue %d", v, i, idx[r])
				}
				v = 0
			}
			out[i][idx[r]] = v
		}
	}
	return out, nil
}

// referenceCoOwnership is Ψ(a, b) as it was before the per-solve tables:
// N re-summed and both fractions divided out on every call.
func referenceCoOwnership(meanUsers []float64, owners [][]float64, a, b int) float64 {
	total := mathx.Sum(meanUsers)
	if total <= 0 {
		return 0
	}
	var psi float64
	for q, nq := range meanUsers {
		if nq <= 0 {
			continue
		}
		fa := mathx.Clamp(owners[a][q]/nq, 0, 1)
		fb := mathx.Clamp(owners[b][q]/nq, 0, 1)
		psi += (nq / total) * fa * fb
	}
	return psi
}

// tableCoOwnership is Ψ(a, b) through the solver's path: ownershipTables
// once, then coOwnership on its rows.
func tableCoOwnership(meanUsers []float64, owners [][]float64, a, b int) float64 {
	j := len(meanUsers)
	var s Solver
	w := s.workspace(j)
	total := mathx.Sum(meanUsers)
	ownershipTables(w, meanUsers, total, owners)
	return coOwnership(meanUsers, total, w.weight, w.frac[a*j:(a+1)*j], w.frac[b*j:(b+1)*j])
}

// referenceSolve is Solve as it was before this package went flat: the
// reference owner solve, co-ownership re-summing N on every call, and the
// reflect-based stable sort for the rarest-first order.
func referenceSolve(a Analysis) (Result, error) {
	eq := a.Equilibrium
	j := eq.Config.Chunks
	owners, err := referenceOwnersByQueue(eq.ViewerLoad, a.Transfer)
	if err != nil {
		return Result{}, err
	}
	res := Result{OwnersByQueue: owners, Owners: make([]float64, j), CloudDemand: make([]float64, j)}
	for i := 0; i < j; i++ {
		var sum float64
		for q := 0; q < j; q++ {
			if q != i {
				sum += owners[i][q]
			}
		}
		res.Owners[i] = sum
	}
	gamma := make([]float64, j)
	if a.PeerUpload > 0 {
		order := make([]int, j)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			return res.Owners[order[x]] < res.Owners[order[y]]
		})
		totalPeers := mathx.Sum(eq.ViewerLoad)
		for k, chunk := range order {
			demand := eq.Capacity[chunk]
			if demand <= 0 || res.Owners[chunk] <= 0 {
				continue
			}
			available := res.Owners[chunk] * a.PeerUpload
			for jj := 0; jj < k; jj++ {
				rarer := order[jj]
				if gamma[rarer] <= 0 || res.Owners[rarer] <= 0 {
					continue
				}
				available -= referenceCoOwnership(eq.ViewerLoad, owners, rarer, chunk) * totalPeers * gamma[rarer] / res.Owners[rarer]
			}
			if available < 0 {
				available = 0
			}
			if available > demand {
				available = demand
			}
			gamma[chunk] = available
		}
	}
	res.PeerSupply = gamma
	for i := 0; i < j; i++ {
		res.CloudDemand[i] = eq.Capacity[i] - res.PeerSupply[i]
		if res.CloudDemand[i] < 0 {
			res.CloudDemand[i] = 0
		}
	}
	return res, nil
}

// checkSolveBits requires Solve to reproduce the reference pipeline bit
// for bit, or to fail with the same message.
func checkSolveBits(t *testing.T, label string, a Analysis) {
	t.Helper()
	want, wantErr := referenceSolve(a)
	got, err := Solve(a)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, reference err = %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := range want.OwnersByQueue {
		if !testutil.SameBits(got.OwnersByQueue[i], want.OwnersByQueue[i]) {
			t.Fatalf("%s: OwnersByQueue[%d] = %v, reference %v", label, i, got.OwnersByQueue[i], want.OwnersByQueue[i])
		}
	}
	if len(got.OwnersByQueue) != len(want.OwnersByQueue) ||
		!testutil.SameBits(got.Owners, want.Owners) ||
		!testutil.SameBits(got.PeerSupply, want.PeerSupply) ||
		!testutil.SameBits(got.CloudDemand, want.CloudDemand) {
		t.Fatalf("%s: result %+v, reference %+v", label, got, want)
	}
	load := a.Equilibrium.ViewerLoad
	for x := range want.OwnersByQueue {
		for y := range want.OwnersByQueue {
			got := tableCoOwnership(load, want.OwnersByQueue, x, y)
			ref := referenceCoOwnership(load, want.OwnersByQueue, x, y)
			if !testutil.SameBits([]float64{got}, []float64{ref}) {
				t.Fatalf("%s: Ψ(%d,%d) = %v from the tables, reference %v", label, x, y, got, ref)
			}
		}
	}
}

// withLoad returns eq with its per-queue viewer load replaced by load,
// leaving the other arrays shared.
func withLoad(eq queueing.Equilibrium, load []float64) queueing.Equilibrium {
	eq.ViewerLoad = load
	return eq
}

// channelAt solves the equilibrium of a j-chunk channel on matrix p.
func channelAt(t *testing.T, j int, p queueing.TransferMatrix, lambda float64) queueing.Equilibrium {
	t.Helper()
	cfg := testutil.ChannelConfig(j, 75)
	cfg.SlotsPerVM = 5
	if j == 1 {
		cfg.EntryFirstChunk = 1
	}
	eq, err := queueing.Solve(cfg, p, lambda, 0)
	if err != nil {
		t.Fatalf("queueing.Solve(J=%d): %v", j, err)
	}
	return eq
}

func TestSolveMatchesReferenceBits(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, j := range []int{1, 2, 3, 8, 20} {
		paper, err := viewing.PaperDefault(j)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			p := paper
			if trial > 0 {
				p = testutil.RandomSubstochastic(j, r.Float64)
			}
			lambda := 0.05 + 2*r.Float64()
			eq := channelAt(t, j, p, lambda)
			// The solved load, then the same channel with its even queues
			// emptied (E[n_q] = 0: the co-ownership skips), with every
			// queue empty (N = 0), and with loads that cancel to N = 0.
			gaps := slices.Clone(eq.ViewerLoad)
			cancel := slices.Clone(eq.ViewerLoad)
			for q := range gaps {
				if q%2 == 0 {
					gaps[q] = 0
				}
				if q%2 == 1 {
					cancel[q] = -cancel[q-1]
				}
			}
			if j%2 == 1 {
				cancel[j-1] = 0
			}
			loads := []struct {
				name string
				eq   queueing.Equilibrium
			}{
				{"solved", eq},
				{"empty even queues", withLoad(eq, gaps)},
				{"all queues empty", withLoad(eq, make([]float64, j))},
				{"cancelling loads", withLoad(eq, cancel)},
			}
			for _, l := range loads {
				for _, uplink := range []float64{0, 20e3, 34e3, 60e3 + 200e3*r.Float64()} {
					label := fmt.Sprintf("J=%d trial %d %s uplink %v", j, trial, l.name, uplink)
					checkSolveBits(t, label, Analysis{Equilibrium: l.eq, Transfer: p, PeerUpload: uplink})
				}
			}
		}
	}
}

// p2p.Solve allocates a fixed handful of times whatever J is: the owner
// backing and its row views, the shared Proposition-1 workspace, the
// result vectors and the rarest-first order.
func TestSolveAllocations(t *testing.T) {
	p, err := viewing.PaperDefault(8)
	if err != nil {
		t.Fatal(err)
	}
	a := Analysis{Equilibrium: channelAt(t, 8, p, 0.25), Transfer: p, PeerUpload: 34e3}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Solve(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("Solve allocates %.1f times at J=8, want at most 7", allocs)
	}
}
