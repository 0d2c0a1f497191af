// Package p2p implements the peer-supply side of the paper's analysis
// (Sec. IV-C): how much of the per-chunk upload demand derived by package
// queueing can be covered by the peers themselves in a mesh-pull P2P VoD
// channel with rarest-first scheduling, and how much the cloud must
// supplement.
//
// The pipeline is:
//
//  1. Proposition 1 — solve, per chunk i, the linear system
//     E[ν_ij] = Σ_l E[ν_il]·P[l][j] with E[ν_ii] = E[n_i] pinned,
//     giving the expected number of peers in each queue j that hold chunk i.
//     All J systems come from one factorization of I − Pᵀ: E[ν_ij] =
//     E[n_i]·N_ij/N_ii for the fundamental matrix N = (I − P)⁻¹. A chain
//     with no departure path makes I − Pᵀ singular and the solve returns
//     the wrapped mathx.ErrSingular.
//  2. Eqn. (4) — E[ν_i] = Σ_{j≠i} E[ν_ij], the expected chunk replica count.
//  3. Co-ownership Ψ(a, b) — the probability a random peer holds both chunks.
//     The paper defers the exact computation to an unavailable technical
//     report; we use a conditional-independence estimator built from the
//     same Proposition-1 quantities (documented in DESIGN.md).
//  4. Eqn. (5) — allocate peer upload bandwidth to chunks in rarest-first
//     order and compute the expected peer contribution Γ_i per chunk.
//     Replica counts are compared rounded to 30 mantissa bits, so counts
//     equal up to rounding tie and go in index order.
//  5. Cloud residual — Δ_i = max(0, R·m_i − Γ_i), the capacity the VoD
//     provider must rent from the cloud for chunk i.
package p2p
