package fluid

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"cloudmedia/internal/queueing"
)

// gatherTol is the relative bound on the split gather's error against the
// exact completion inflow Σ_j flow_j·P[j][k]: γ_{J+2} = (J+2)·u/(1−(J+2)·u)
// with u = 2⁻⁵³. Every term is non-negative, and each part of a term
// f_j·P[j][k] passes through at most J+2 roundings — S's cell P − s, the
// product, at most J−1 additions along S's column or J−2 along the
// prefix and suffix sums plus their sum and the product with s, and the
// final addition — so the error is at most γ_{J+2} times the exact sum.
func gatherTol(J int) float64 {
	n := float64(J+2) * 0x1p-53
	return n / (1 - n)
}

// splitInflow returns every chunk's completion inflow as the kernel
// forms it: the row pass's prefix sums, then gather.sum.
func splitInflow(g *gather, flow []float64) []float64 {
	in := make([]float64, len(flow))
	pre := 0.0
	for k, f := range flow {
		in[k] = pre
		pre += f
	}
	g.sum(in, flow)
	return in
}

// exactInflow returns Σ_j flow_j·P[j][k] over P's positive cells, summed
// at 256-bit precision and rounded once.
func exactInflow(p queueing.TransferMatrix, flow []float64, k int) float64 {
	sum := new(big.Float).SetPrec(256)
	term := new(big.Float).SetPrec(256)
	for j, f := range flow {
		if v := p[j][k]; v > 0 {
			term.SetFloat64(f)
			sum.Add(sum, term.Mul(term, big.NewFloat(v)))
		}
	}
	x, _ := sum.Float64()
	return x
}

// randomFlows draws J non-negative row flows over twelve decades, a
// quarter of them +0 (rows without completions).
func randomFlows(rng *rand.Rand, J int) []float64 {
	flow := make([]float64, J)
	for j := range flow {
		if rng.IntN(4) != 0 {
			flow[j] = math.Pow(10, 12*rng.Float64()-6)
		}
	}
	return flow
}

// checkGather fails if any chunk's split inflow is further than
// gatherTol from the exact one, relative to it.
func checkGather(t *testing.T, p queueing.TransferMatrix, flow []float64) {
	t.Helper()
	g := newGather(p)
	got := splitInflow(&g, flow)
	tol := gatherTol(len(p))
	for k, x := range got {
		want := exactInflow(p, flow, k)
		if !(math.Abs(x-want) <= tol*want) {
			t.Fatalf("J=%d share %v chunk %d: inflow %v, exact %v (relative %.3g, bound %.3g)",
				len(p), g.share, k, x, want, math.Abs(x-want)/want, tol)
		}
	}
}

// TestGatherMatchesDense holds the split gather to the exact dense
// product within gatherTol on every transferKinds family (including
// off-diagonal minima of 0) for J = 1…20, and checks the split itself:
// the jump prior's share is its jump share and its S one band.
func TestGatherMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for J := 1; J <= 20; J++ {
		for _, kind := range transferKinds {
			for n := 0; n < 20; n++ {
				checkGather(t, kind.draw(rng, J), randomFlows(rng, J))
			}
		}
	}

	p := jumpPriorTransfer(rng, 8)
	g := newGather(p)
	if g.share != p[7][0] || g.share <= 0 {
		t.Errorf("jump prior share = %v, want the jump share %v", g.share, p[7][0])
	}
	for k := 0; k < 8; k++ {
		rows := g.colRow[g.colOff[k]:g.colOff[k+1]]
		if want := min(k, 1); len(rows) != want || (want == 1 && rows[0] != k-1) {
			t.Errorf("jump prior column %d holds rows %v, want only the sequential predecessor", k, rows)
		}
	}
}

// FuzzGatherMatchesDense holds the split gather to the exact dense
// product within gatherTol on fuzzed matrices (every transferKinds
// family, J = 1…20) and flows.
func FuzzGatherMatchesDense(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint64(1), uint64(2))
	f.Add(uint8(0), uint8(1), uint64(3), uint64(4))
	f.Add(uint8(19), uint8(2), uint64(5), uint64(6))
	f.Fuzz(func(t *testing.T, jSel, kindSel uint8, seed1, seed2 uint64) {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		J := 1 + int(jSel)%20
		p := transferKinds[int(kindSel)%len(transferKinds)].draw(rng, J)
		checkGather(t, p, randomFlows(rng, J))
	})
}
