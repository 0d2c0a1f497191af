package p2p

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/viewing"
)

func paperConfig() queueing.Config {
	// testutil's standard shape at the paper's 10×300 s chunk layout
	// (DefaultVMBandwidth is the paper's 10 Mbps = 1.25e6 B/s).
	return testutil.ChannelConfig(10, 300)
}

func solvedChannel(t *testing.T, cfg queueing.Config, cont float64, lambda float64) (queueing.Equilibrium, queueing.TransferMatrix) {
	t.Helper()
	p, err := viewing.Sequential(cfg.Chunks, cont)
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	eq, err := queueing.Solve(cfg, p, lambda, 0)
	if err != nil {
		t.Fatalf("queueing.Solve: %v", err)
	}
	return eq, p
}

func TestSolveValidation(t *testing.T) {
	eq, p := solvedChannel(t, paperConfig(), 0.9, 0.3)
	if _, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: -1}); err == nil {
		t.Error("negative upload: want error")
	}
	small := queueing.NewTransferMatrix(3)
	if _, err := Solve(Analysis{Equilibrium: eq, Transfer: small, PeerUpload: 1}); err == nil {
		t.Error("matrix size mismatch: want error")
	}
	if _, err := Solve(Analysis{}); err == nil {
		t.Error("empty analysis: want error")
	}
}

func TestOwnersSequentialChain(t *testing.T) {
	// Sequential viewing with α=1 (everyone starts at chunk 1): owners of
	// chunk i are exactly the users now in queues i+1..J, since every
	// downstream user downloaded it on the way. (With mid-stream entry
	// α<1 this identity no longer holds: later entrants skip early chunks.)
	cfg := paperConfig()
	cfg.EntryFirstChunk = 1
	eq, p := solvedChannel(t, cfg, 1.0, 0.3) // no early departures except after last chunk
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 60e3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := 0; i < cfg.Chunks; i++ {
		var downstream float64
		for q := i + 1; q < cfg.Chunks; q++ {
			downstream += eq.ViewerLoad[q]
		}
		if !mathx.ApproxEqual(res.Owners[i], downstream, 1e-6) {
			t.Errorf("Owners[%d] = %v, want downstream population %v", i, res.Owners[i], downstream)
		}
	}
	// The last chunk has no downstream queue: nobody holds it.
	last := cfg.Chunks - 1
	if res.Owners[last] > 1e-9 {
		t.Errorf("Owners[last] = %v, want 0", res.Owners[last])
	}
	// So the cloud must carry the full demand for it.
	wantDemand := cfg.VMBandwidth * float64(eq.Servers[last])
	if !mathx.ApproxEqual(res.CloudDemand[last], wantDemand, 1e-6) {
		t.Errorf("CloudDemand[last] = %v, want %v", res.CloudDemand[last], wantDemand)
	}
}

func TestOwnersDiagonalIsQueuePopulation(t *testing.T) {
	eq, p := solvedChannel(t, paperConfig(), 0.9, 0.2)
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 60e3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range eq.ViewerLoad {
		if res.OwnersByQueue[i][i] != eq.ViewerLoad[i] {
			t.Errorf("diag[%d] = %v, want E[n]=%v", i, res.OwnersByQueue[i][i], eq.ViewerLoad[i])
		}
	}
}

func TestSupplyBounds(t *testing.T) {
	cfg := paperConfig()
	eq, p := solvedChannel(t, cfg, 0.9, 0.4)
	u := 60e3
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: u})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := 0; i < cfg.Chunks; i++ {
		demandCap := float64(eq.Servers[i]) * cfg.VMBandwidth
		if res.PeerSupply[i] < 0 {
			t.Errorf("Γ[%d] = %v < 0", i, res.PeerSupply[i])
		}
		if res.PeerSupply[i] > demandCap+1e-6 {
			t.Errorf("Γ[%d] = %v exceeds demand cap m·R = %v", i, res.PeerSupply[i], demandCap)
		}
		if res.PeerSupply[i] > res.Owners[i]*u+1e-6 {
			t.Errorf("Γ[%d] = %v exceeds owner uplink %v", i, res.PeerSupply[i], res.Owners[i]*u)
		}
		full := cfg.VMBandwidth * float64(eq.Servers[i])
		if res.CloudDemand[i] < 0 || res.CloudDemand[i] > full+1e-6 {
			t.Errorf("Δ[%d] = %v outside [0, %v]", i, res.CloudDemand[i], full)
		}
		if !mathx.ApproxEqual(res.CloudDemand[i], full-res.PeerSupply[i], 1e-6) {
			t.Errorf("Δ[%d] = %v, want Rm−Γ = %v", i, res.CloudDemand[i], full-res.PeerSupply[i])
		}
	}
}

func TestZeroUploadMeansFullCloudDemand(t *testing.T) {
	cfg := paperConfig()
	eq, p := solvedChannel(t, cfg, 0.9, 0.4)
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 0})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.TotalPeerSupply() != 0 {
		t.Errorf("Γ total = %v, want 0", res.TotalPeerSupply())
	}
	if !mathx.ApproxEqual(res.TotalCloudDemand(), eq.TotalCapacity(), 1e-6) {
		t.Errorf("Δ total = %v, want full capacity %v", res.TotalCloudDemand(), eq.TotalCapacity())
	}
}

func TestMoreUploadNeverIncreasesCloudDemand(t *testing.T) {
	cfg := paperConfig()
	eq, p := solvedChannel(t, cfg, 0.9, 0.4)
	prev := -1.0
	for _, u := range []float64{100e3, 60e3, 40e3, 20e3, 0} { // decreasing upload
		res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: u})
		if err != nil {
			t.Fatalf("Solve(u=%v): %v", u, err)
		}
		if d := res.TotalCloudDemand(); d < prev-1e-6 {
			t.Errorf("cloud demand not monotone: u=%v gives %v < %v", u, d, prev)
		} else {
			prev = d
		}
	}
}

func TestP2PDemandBelowClientServer(t *testing.T) {
	// The headline claim: peer-assisted cloud demand is far below the
	// client-server demand when peer uplinks are comparable to r.
	cfg := paperConfig()
	eq, p := solvedChannel(t, cfg, 0.9, 0.4)
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 50e3}) // u = r
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.TotalCloudDemand() >= eq.TotalCapacity() {
		t.Errorf("P2P demand %v not below C/S demand %v", res.TotalCloudDemand(), eq.TotalCapacity())
	}
}

func TestCoOwnershipProperties(t *testing.T) {
	eq, p := solvedChannel(t, paperConfig(), 0.9, 0.4)
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 60e3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	j := eq.Config.Chunks
	for a := 0; a < j; a++ {
		for b := 0; b < j; b++ {
			psi := tableCoOwnership(eq.ViewerLoad, res.OwnersByQueue, a, b)
			if psi < 0 || psi > 1 {
				t.Errorf("Ψ(%d,%d) = %v outside [0,1]", a, b, psi)
			}
			back := tableCoOwnership(eq.ViewerLoad, res.OwnersByQueue, b, a)
			if !mathx.ApproxEqual(psi, back, 1e-9) {
				t.Errorf("Ψ not symmetric: (%d,%d)=%v vs %v", a, b, psi, back)
			}
		}
	}
}

func TestCoOwnershipEmptyChannel(t *testing.T) {
	if got := tableCoOwnership([]float64{0, 0}, [][]float64{{0, 0}, {0, 0}}, 0, 1); got != 0 {
		t.Errorf("Ψ on empty channel = %v, want 0", got)
	}
}

func TestSingleChunkChannel(t *testing.T) {
	cfg := queueing.Config{Chunks: 1, PlaybackRate: 50e3, ChunkSeconds: 300, VMBandwidth: 1.25e6, EntryFirstChunk: 1}
	p := queueing.NewTransferMatrix(1)
	eq, err := queueing.Solve(cfg, p, 0.1, 0)
	if err != nil {
		t.Fatalf("queueing.Solve: %v", err)
	}
	res, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 60e3})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Single chunk, sequential: downloaders leave immediately after, so
	// nobody holds it and the cloud serves everything.
	if res.Owners[0] != 0 {
		t.Errorf("Owners[0] = %v, want 0", res.Owners[0])
	}
	if !mathx.ApproxEqual(res.TotalCloudDemand(), eq.TotalCapacity(), 1e-9) {
		t.Errorf("Δ = %v, want %v", res.TotalCloudDemand(), eq.TotalCapacity())
	}
}

// Property test: for random viewing matrices, all invariants hold at once.
func TestSolveInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := queueing.Config{
			Chunks:          3 + r.Intn(8),
			PlaybackRate:    50e3,
			ChunkSeconds:    300,
			VMBandwidth:     1.25e6,
			EntryFirstChunk: r.Float64(),
		}
		pm, err := viewing.SequentialWithJumps(cfg.Chunks, 0.5+r.Float64()*0.45, r.Float64()*0.5)
		if err != nil {
			return false
		}
		eq, err := queueing.Solve(cfg, pm, 0.01+r.Float64()*0.5, 0)
		if err != nil {
			return false
		}
		u := r.Float64() * 120e3
		res, err := Solve(Analysis{Equilibrium: eq, Transfer: pm, PeerUpload: u})
		if err != nil {
			return false
		}
		for i := 0; i < cfg.Chunks; i++ {
			full := cfg.VMBandwidth * float64(eq.Servers[i])
			if res.PeerSupply[i] < -1e-9 || res.PeerSupply[i] > full+1e-6 {
				return false
			}
			if res.Owners[i] < -1e-9 {
				return false
			}
			if res.CloudDemand[i] < -1e-9 || res.CloudDemand[i] > full+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Replica counts that differ only in their last bit are equal up to the
// rounding of the elimination that produced them, so Eqn. (5) visits
// them in index order: chunk 0, whose count is one ulp larger, first.
// 101.453125 is such a count from a count-estimated matrix, exactly
// representable, so it sits on a truncation boundary.
func TestPeerSupplyTiesAtRoundingGoInIndexOrder(t *testing.T) {
	x := 101.453125
	counts := []float64{x, math.Nextafter(x, 0)}
	eq := queueing.Equilibrium{ViewerLoad: []float64{400, 300}, Capacity: []float64{5e6, 5e6}}
	owners := [][]float64{{400, x}, {x, 300}}
	var s Solver
	gamma, order := make([]float64, 2), make([]int, 2)
	peerSupply(gamma, order, s.workspace(2), eq, owners, counts, 34e3)
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("rarest-first order %v, want [0 1]", order)
	}
	if gamma[0] != x*34e3 || !(gamma[1] < counts[1]*34e3) {
		t.Errorf("Γ = %v: chunk 0 should draw its owners' full uplink %v and chunk 1 less", gamma, x*34e3)
	}
}

// A chain with no departure path has a singular I − Pᵀ: Solve reports
// mathx.ErrSingular, as queueing's traffic solve on the same matrix
// already does, even though each chunk's reduced system (the cycle with
// that chunk cut out) is nonsingular.
func TestSolveSingularWithoutDeparture(t *testing.T) {
	cycle := queueing.NewTransferMatrix(3)
	cycle[0][1], cycle[1][2], cycle[2][0] = 1, 1, 1
	cfg := testutil.ChannelConfig(3, 75)
	if _, err := queueing.Solve(cfg, cycle, 0, 0); !errors.Is(err, mathx.ErrSingular) {
		t.Fatalf("queueing.Solve on the cycle: err = %v, want ErrSingular", err)
	}
	eq, p := solvedChannel(t, cfg, 0.9, 0.3)
	if _, err := Solve(Analysis{Equilibrium: eq, Transfer: cycle, PeerUpload: 34e3}); !errors.Is(err, mathx.ErrSingular) {
		t.Fatalf("Solve on the cycle: err = %v, want ErrSingular", err)
	}
	if _, err := referenceOwnersByQueue(eq.ViewerLoad, cycle); err != nil {
		t.Fatalf("per-chunk reference on the cycle: %v, want its reduced systems to solve", err)
	}
	if _, err := Solve(Analysis{Equilibrium: eq, Transfer: p, PeerUpload: 34e3}); err != nil {
		t.Fatalf("Solve on the sequential chain: %v", err)
	}
}

// Solve validates the transfer matrix itself: a row summing above 1
// fails although each of its entries lies in [0, 1]. Only
// SolveWithInverse, whose caller's traffic solve validated the matrix,
// skips the check.
func TestSolveRejectsRowAboveOne(t *testing.T) {
	eq, p := solvedChannel(t, paperConfig(), 0.9, 0.3)
	bad := queueing.NewTransferMatrix(p.Size())
	for i := range p {
		copy(bad[i], p[i])
	}
	bad[2][0] = 0.5 // row 2 already moves on to chunk 3 with 0.9
	if _, err := Solve(Analysis{Equilibrium: eq, Transfer: bad, PeerUpload: 34e3}); err == nil || !strings.Contains(err.Error(), "sums to") {
		t.Fatalf("row summing to 1.4: err = %v, want the row-sum error", err)
	}
}

// SolveWithInverse, given the inverse of queueing's traffic solve,
// returns Solve's result bit for bit, and rejects an inverse of the
// wrong size.
func TestSolveWithInverseMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var qs queueing.Solver
	var s Solver
	for trial := 0; trial < 60; trial++ {
		j := 1 + r.Intn(12)
		cfg := testutil.ChannelConfig(j, 300)
		if j == 1 {
			cfg.EntryFirstChunk = 1
		}
		p := testutil.RandomSubstochastic(j, r.Float64)
		eq, inv, err := qs.SolveWithInverse(cfg, p, 0.01+r.Float64(), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		a := Analysis{Equilibrium: eq, Transfer: p, PeerUpload: r.Float64() * 120e3}
		want, err := Solve(a)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		got, err := s.SolveWithInverse(a, inv)
		if err != nil {
			t.Fatalf("trial %d: SolveWithInverse: %v", trial, err)
		}
		for i := range want.OwnersByQueue {
			if !testutil.SameBits(got.OwnersByQueue[i], want.OwnersByQueue[i]) {
				t.Fatalf("trial %d: owners of chunk %d %v, Solve's %v", trial, i, got.OwnersByQueue[i], want.OwnersByQueue[i])
			}
		}
		if !testutil.SameBits(got.Owners, want.Owners) || !testutil.SameBits(got.PeerSupply, want.PeerSupply) ||
			!testutil.SameBits(got.CloudDemand, want.CloudDemand) {
			t.Fatalf("trial %d: result differs from Solve's", trial)
		}
		if _, err := s.SolveWithInverse(a, inv[1:]); err == nil {
			t.Fatalf("trial %d: an inverse one entry short was accepted", trial)
		}
	}
}
