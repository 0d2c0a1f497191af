package fluid

import (
	"math"

	"cloudmedia/internal/queueing"
)

// gather is the transfer matrix P split for the chunk pass's completion
// gather as P = s·(11ᵀ − I) + S: one share s on every off-diagonal cell,
// the smallest off-diagonal entry, plus the non-negative remainder S,
// kept as sparse columns. Chunk k's completion inflow Σ_j flow_j·P[j][k]
// is then column k of S against flow plus s·(Σ_{j<k} flow_j +
// Σ_{j>k} flow_j), from prefix and suffix sums: O(J) per channel-step
// instead of a dense J×J product. The jump prior every stack run uses
// (viewing.SequentialWithJumps) is a jump share on every off-diagonal
// cell plus a sequential band, so its S holds one entry per column but
// the first; a matrix whose off-diagonal minimum is zero gets s = 0 and
// S = P. Every cell of P that is not positive (zero, negative zero, NaN)
// counts as +0.
//
// The split and the sums reorder the dense product's additions, and S's
// cells are P's minus s, so the inflow moves in its last bits. All terms
// are non-negative and each part of a term passes through at most J+2
// roundings, so the inflow stays within a relative
// γ_{J+2} = (J+2)·2⁻⁵³/(1 − (J+2)·2⁻⁵³) of the exact sum
// (TestGatherMatchesDense, FuzzGatherMatchesDense).
type gather struct {
	share  float64   // s
	colOff []int     // column k's entries are [colOff[k], colOff[k+1])
	colRow []int     // each entry's source chunk j, ascending within a column
	colVal []float64 // each entry's S[j][k], positive
}

func newGather(p queueing.TransferMatrix) gather {
	J := len(p)
	cell := func(j, k int) float64 {
		if v := p[j][k]; v > 0 {
			return v
		}
		return 0
	}
	share := 0.0
	if J > 1 {
		share = math.Inf(1)
		for j := 0; j < J; j++ {
			for k := 0; k < J; k++ {
				if k != j {
					share = min(share, cell(j, k))
				}
			}
		}
	}
	g := gather{share: share, colOff: make([]int, J+1)}
	for k := 0; k < J; k++ {
		g.colOff[k] = len(g.colRow)
		for j := 0; j < J; j++ {
			v := cell(j, k)
			if j != k {
				v -= share
			}
			if v > 0 {
				g.colRow = append(g.colRow, j)
				g.colVal = append(g.colVal, v)
			}
		}
	}
	g.colOff[J] = len(g.colRow)
	return g
}

// sum turns in[k], which holds on entry the flow of the rows before k
// (Σ_{j<k} flow_j, summed in row order from +0), into chunk k's
// completion inflow Σ_j flow_j·P[j][k]: column k of S against flow in
// source-row order, plus s times the flow of the rows before and after
// k. It visits the chunks from the last back, summing the rows after k
// on the way; the row pass that writes flow sums the rows before.
func (g *gather) sum(in, flow []float64) {
	in = in[:len(flow)]
	off := g.colOff[:len(flow)+1]
	rows, vals := g.colRow, g.colVal[:len(g.colRow)]
	suf := 0.0
	for k := len(flow) - 1; k >= 0; k-- {
		x := 0.0
		for e := off[k]; e < off[k+1]; e++ {
			x += flow[rows[e]] * vals[e]
		}
		in[k] = x + g.share*(in[k]+suf)
		suf += flow[k]
	}
}
