package p2p

import (
	"fmt"
	"math"
	"slices"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
)

// Analysis bundles the channel equilibrium with the P2P parameters needed
// to evaluate peer supply.
type Analysis struct {
	// Equilibrium is the solved demand side from package queueing.
	Equilibrium queueing.Equilibrium
	// Transfer is the chunk-transfer matrix the equilibrium was solved with.
	Transfer queueing.TransferMatrix
	// PeerUpload is u: the (average) per-peer upload bandwidth in bytes/s.
	PeerUpload float64
}

// Result is the outcome of the peer-supply analysis for one channel.
type Result struct {
	// OwnersByQueue[i][j] = E[ν_ij]: expected peers in queue j holding chunk
	// i; the diagonal holds E[ν_ii] = E[n_i].
	OwnersByQueue [][]float64
	// Owners[i] = E[ν_i]: expected replica count of chunk i among peers that
	// are not currently downloading it (Eqn. 4).
	Owners []float64
	// PeerSupply[i] = E[Γ_i]: expected peer upload bandwidth serving chunk i
	// under rarest-first allocation (Eqn. 5), bytes/s.
	PeerSupply []float64
	// CloudDemand[i] = E[Δ_i] = max(0, R·m_i − Γ_i): capacity to rent from
	// the cloud for chunk i, bytes/s.
	CloudDemand []float64
}

// TotalPeerSupply returns Σ_i Γ_i in bytes/s.
func (r Result) TotalPeerSupply() float64 { return mathx.Sum(r.PeerSupply) }

// TotalCloudDemand returns Σ_i Δ_i in bytes/s.
func (r Result) TotalCloudDemand() float64 { return mathx.Sum(r.CloudDemand) }

// Solve runs the full Sec. IV-C pipeline.
func Solve(a Analysis) (Result, error) {
	var s Solver
	return s.Solve(a)
}

// Solver is Solve with storage it keeps between calls: the result it
// returns views the solver's buffers and stays valid only until its next
// Solve. A controller deriving many channels per round keeps one per
// worker, so the steady solve allocates nothing. The zero value is ready.
type Solver struct {
	res   Result
	flat  []float64 // OwnersByQueue's J×J backing
	work  []float64 // I−Pᵀ, its inverse and Eqn. (5)'s tables, see workspace
	order []int     // peerSupply's rarest-first permutation
}

// workspace is the solver's scratch for one J-chunk solve, cut from one
// reused buffer.
type workspace struct {
	transpose []float64 // J×J: I − Pᵀ, row q holding δ_qc − P[c][q]
	inverse   []float64 // J×J: (I − Pᵀ)⁻¹, column i solving (I − Pᵀ)·w = e_i
	weight    []float64 // J: E[n_q]/N, set where E[n_q] > 0
	frac      []float64 // J×J: row a holds clamp(E[ν_aq]/E[n_q], 0, 1), set where E[n_q] > 0
}

// workspace resizes s.work for j chunks and cuts it into its parts.
func (s *Solver) workspace(j int) workspace {
	s.work = resize(s.work, 3*j*j+j)
	var w workspace
	rest := s.work
	cut := func(size int) []float64 {
		part := rest[:size:size]
		rest = rest[size:]
		return part
	}
	w.transpose, w.inverse, w.frac, w.weight = cut(j*j), cut(j*j), cut(j*j), cut(j)
	return w
}

// Solve is the package-level Solve into the solver's buffers.
func (s *Solver) Solve(a Analysis) (Result, error) {
	return s.solve(a, nil)
}

// SolveWithInverse is Solve for an equilibrium whose solve already
// factored M = I − Pᵀ: inverse is M⁻¹, J×J row-major, as
// queueing.Solver.SolveWithInverse returns it for a.Transfer. It skips
// the transfer-matrix validation, which that solve ran, and Proposition
// 1's elimination; every other check, and every bit of the result, is
// Solve's.
func (s *Solver) SolveWithInverse(a Analysis, inverse []float64) (Result, error) {
	if j := a.Equilibrium.Config.Chunks; len(inverse) != j*j {
		return Result{}, fmt.Errorf("p2p: inverse of %d entries for %d chunks", len(inverse), j)
	}
	return s.solve(a, inverse)
}

// solve is Solve, taking Proposition 1 from inverse when it is not nil.
func (s *Solver) solve(a Analysis, inverse []float64) (Result, error) {
	eq := a.Equilibrium
	j := eq.Config.Chunks
	if j == 0 {
		return Result{}, fmt.Errorf("p2p: empty equilibrium")
	}
	if a.Transfer.Size() != j {
		return Result{}, fmt.Errorf("p2p: transfer matrix size %d != chunks %d", a.Transfer.Size(), j)
	}
	if inverse == nil {
		if err := a.Transfer.Validate(); err != nil {
			return Result{}, fmt.Errorf("p2p: %w", err)
		}
	}
	// Written so NaN fails it; the MaxFloat64 bound rules out +Inf.
	if !(a.PeerUpload >= 0 && a.PeerUpload <= math.MaxFloat64) {
		return Result{}, fmt.Errorf("p2p: peer upload %v not non-negative and finite", a.PeerUpload)
	}
	if len(eq.ViewerLoad) != j || len(eq.Servers) != j {
		return Result{}, fmt.Errorf("p2p: equilibrium arrays inconsistent with chunk count")
	}

	w := s.workspace(j)
	owners, err := s.ownersByQueue(w, eq.ViewerLoad, a.Transfer, inverse)
	if err != nil {
		return Result{}, err
	}

	res := &s.res
	res.OwnersByQueue = owners
	res.Owners = resize(res.Owners, j)
	res.CloudDemand = resize(res.CloudDemand, j)
	for i := 0; i < j; i++ {
		var sum float64
		for q := 0; q < j; q++ {
			if q != i {
				sum += owners[i][q]
			}
		}
		res.Owners[i] = sum
	}

	res.PeerSupply = resize(res.PeerSupply, j)
	s.order = resize(s.order, j)
	peerSupply(res.PeerSupply, s.order, w, eq, owners, res.Owners, a.PeerUpload)
	for i := 0; i < j; i++ {
		res.CloudDemand[i] = eq.Capacity[i] - res.PeerSupply[i]
		if res.CloudDemand[i] < 0 {
			res.CloudDemand[i] = 0
		}
	}
	return *res, nil
}

// resize returns buf resized to n, reusing its storage when it is large
// enough; callers overwrite every entry. It is slices.Grow(buf[:0], n)[:n]
// in one allocation: under the race detector's instrumentation that
// expression allocates twice when it grows, which TestSolveAllocations'
// per-solve bound would count.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ownersByQueue solves Proposition 1 for every chunk from one
// factorization of M = I − Pᵀ. For chunk i the unknowns x_q = E[ν_iq],
// q ≠ i, satisfy
//
//	x_q = Σ_{l≠i} x_l·P[l][q] + E[n_i]·P[i][q]
//
// with x_i = E[n_i]: rows q ≠ i of M·x = 0. Column i of M⁻¹, w = M⁻¹e_i,
// satisfies exactly those rows, and w_i = N_ii ≥ 1 for the fundamental
// matrix N = (I − P)⁻¹ = (M⁻¹)ᵀ, so x = E[n_i]·w/w_i (Kemeny & Snell's
// fundamental-matrix identity). One elimination of M with J right-hand
// sides replaces J reduced (J−1)×(J−1) eliminations; a non-nil inverse
// is M⁻¹ from the caller's elimination and replaces this one. The result
// rows are views over one flat J×J backing kept by the solver, so a
// steady solve allocates nothing whatever J is. See DESIGN.md,
// "Proposition 1".
func (s *Solver) ownersByQueue(w workspace, meanUsers []float64, p queueing.TransferMatrix, inverse []float64) ([][]float64, error) {
	j := len(meanUsers)
	s.flat = resize(s.flat, j*j)
	clear(s.flat)
	out := resize(s.res.OwnersByQueue, j)
	for i := range out {
		out[i] = s.flat[i*j : (i+1)*j : (i+1)*j]
		out[i][i] = meanUsers[i]
	}
	if j == 1 {
		return out, nil
	}
	if inverse == nil {
		inverse = w.inverse
		clear(inverse)
		for q := 0; q < j; q++ {
			row := w.transpose[q*j : (q+1)*j]
			for c := range row {
				row[c] = -p[c][q]
			}
			row[q] += 1
			inverse[q*j+q] = 1
		}
		if err := mathx.SolveManyInPlace(w.transpose, inverse, j); err != nil {
			return nil, fmt.Errorf("p2p: proposition 1: %w", err)
		}
	}
	for i := 0; i < j; i++ {
		for q := 0; q < j; q++ {
			if q == i {
				continue
			}
			v := meanUsers[i] * inverse[q*j+i] / inverse[i*j+i]
			if v < 0 {
				if v < -1e-6 {
					return nil, fmt.Errorf("p2p: negative owner count %v for chunk %d in queue %d", v, i, q)
				}
				v = 0
			}
			out[i][q] = v
		}
	}
	return out, nil
}

// ownershipTables fills Eqn. (5)'s per-solve constants: each populated
// queue's weight E[n_q]/N and every chunk's clamped ownership fraction
// E[ν_aq]/E[n_q] in it. Queues with E[n_q] ≤ 0 are left unset: the
// co-ownership sum skips them.
func ownershipTables(w workspace, meanUsers []float64, total float64, owners [][]float64) {
	j := len(meanUsers)
	for q, nq := range meanUsers {
		if nq <= 0 {
			continue
		}
		w.weight[q] = nq / total
		for a := range owners {
			w.frac[a*j+q] = mathx.Clamp(owners[a][q]/nq, 0, 1)
		}
	}
}

// coOwnership returns Ψ(a, b): the estimated probability that a random
// peer in the channel simultaneously holds chunks a and b. With
// N = Σ_q E[n_q] and conditional independence of ownership given the
// peer's current queue:
//
//	Ψ(a,b) = Σ_q (E[n_q]/N) · (E[ν_aq]/E[n_q]) · (E[ν_bq]/E[n_q])
//
// weight and the fraction rows fa, fb come from ownershipTables, so
// Eqn. (5)'s O(J²) calls neither re-sum N nor repeat the divisions.
// Per-queue ownership fractions are clamped to 1 since E[ν_iq] can
// slightly exceed E[n_q] under the proposition's balance approximation.
func coOwnership(meanUsers []float64, total float64, weight, fa, fb []float64) float64 {
	if total <= 0 {
		return 0
	}
	var psi float64
	for q, nq := range meanUsers {
		if nq <= 0 {
			continue
		}
		psi += weight[q] * fa[q] * fb[q]
	}
	return psi
}

// rarityKey is the replica count Eqn. (5)'s rarest-first order compares:
// x rounded to 30 of its 52 mantissa bits, a relative precision of
// 2⁻³⁰ ≈ 1e-9. Chunks whose counts are equal in exact arithmetic (a
// symmetric viewing pattern, a count-estimated matrix) come out of
// Proposition 1 a few ulps apart, and which ulp wins depends on the
// elimination's rounding, not on the model; at this precision they tie
// and go in index order. Such counts are often exactly representable
// (101.453125 from small integer counts), which puts them on a
// truncation boundary but at the centre of a rounding bucket, so the key
// rounds to nearest. Rounding is monotone, so the key never reverses the
// order of two counts.
func rarityKey(x float64) float64 {
	return math.Float64frombits((math.Float64bits(x) + 1<<21) &^ (1<<22 - 1))
}

// peerSupply evaluates Eqn. (5) into gamma (len J), with order (len J)
// and w's ownership tables as scratch: chunks are served rarest-first,
// so the upload bandwidth a chunk can draw from its owners is what those
// owners have not already committed to rarer chunks.
func peerSupply(gamma []float64, order []int, w workspace, eq queueing.Equilibrium, owners [][]float64, replicaCount []float64, upload float64) {
	clear(gamma)
	if upload <= 0 {
		return
	}
	for i := range order {
		order[i] = i
	}
	// Ascending replica count at rarityKey's precision, stable, so ties
	// keep index order.
	slices.SortStableFunc(order, func(a, b int) int {
		ka, kb := rarityKey(replicaCount[a]), rarityKey(replicaCount[b])
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})

	totalPeers := mathx.Sum(eq.ViewerLoad)
	ownershipTables(w, eq.ViewerLoad, totalPeers, owners)
	j := len(order)
	// Demand cap per chunk. Eqn. (5) prints this as m_i·r, but with the
	// paper's own parameters (R = 25r) that would bound peer savings at 4%,
	// contradicting the 5–10× cloud-cost reductions of Figs. 4 and 10. The
	// binding constraint in their testbed is clearly the owners' total
	// uplink, so we read the cap as the chunk's full provisioned demand
	// (see DESIGN.md, "Substitutions").
	for k, chunk := range order {
		demand := eq.Capacity[chunk]
		if demand <= 0 || replicaCount[chunk] <= 0 {
			continue
		}
		available := replicaCount[chunk] * upload
		// Subtract bandwidth the owners have already committed to rarer
		// chunks: for each rarer chunk π_j, the Ψ·N co-owners each contribute
		// Γ_πj / E[ν_πj].
		for jj := 0; jj < k; jj++ {
			rarer := order[jj]
			if gamma[rarer] <= 0 || replicaCount[rarer] <= 0 {
				continue
			}
			coOwners := coOwnership(eq.ViewerLoad, totalPeers, w.weight, w.frac[rarer*j:(rarer+1)*j], w.frac[chunk*j:(chunk+1)*j]) * totalPeers
			available -= coOwners * gamma[rarer] / replicaCount[rarer]
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
