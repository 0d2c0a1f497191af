package core

import (
	"math/rand"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/p2p"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/viewing"
)

func chanCfg() queueing.Config {
	return queueing.Config{
		Chunks:          8,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     1.25e6,
		EntryFirstChunk: 0.7,
	}
}

func TestDeriveDemandClientServer(t *testing.T) {
	cfg := chanCfg()
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeriveDemand(cfg, ChannelInput{ArrivalRate: 0.2, Transfer: p}, false)
	if err != nil {
		t.Fatalf("DeriveDemand: %v", err)
	}
	// Client-server: cloud demand equals the full equilibrium capacity.
	for i := range d.CloudDemand {
		if !mathx.ApproxEqual(d.CloudDemand[i], d.Equilibrium.Capacity[i], 1e-9) {
			t.Errorf("chunk %d: Δ=%v, capacity=%v", i, d.CloudDemand[i], d.Equilibrium.Capacity[i])
		}
		if d.PeerSupply[i] != 0 {
			t.Errorf("chunk %d: peer supply %v in C/S mode", i, d.PeerSupply[i])
		}
	}
}

func TestDeriveDemandP2PReducesCloud(t *testing.T) {
	cfg := chanCfg()
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	in := ChannelInput{ArrivalRate: 0.2, Transfer: p, MeanUplink: 60e3}
	cs, err := DeriveDemand(cfg, in, false)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := DeriveDemand(cfg, in, true)
	if err != nil {
		t.Fatal(err)
	}
	csTotal := mathx.Sum(cs.CloudDemand)
	ppTotal := mathx.Sum(pp.CloudDemand)
	if ppTotal >= csTotal {
		t.Errorf("P2P demand %v not below C/S %v", ppTotal, csTotal)
	}
	if mathx.Sum(pp.PeerSupply) <= 0 {
		t.Error("no peer supply derived")
	}
	// Δ + Γ = full capacity (per chunk, within clamping).
	for i := range pp.CloudDemand {
		full := cs.CloudDemand[i]
		if pp.CloudDemand[i]+pp.PeerSupply[i] < full-1e-6 {
			t.Errorf("chunk %d: Δ+Γ=%v below full %v", i, pp.CloudDemand[i]+pp.PeerSupply[i], full)
		}
	}
}

func TestDeriveDemandZeroUplinkFallsBackToFull(t *testing.T) {
	cfg := chanCfg()
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	in := ChannelInput{ArrivalRate: 0.2, Transfer: p, MeanUplink: 0}
	d, err := DeriveDemand(cfg, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(mathx.Sum(d.CloudDemand), d.Equilibrium.TotalCapacity(), 1e-9) {
		t.Error("zero uplink should mean full cloud demand")
	}
}

func TestDeriveDemandErrors(t *testing.T) {
	cfg := chanCfg()
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveDemand(cfg, ChannelInput{ArrivalRate: -1, Transfer: p}, false); err == nil {
		t.Error("negative rate: want error")
	}
	closed := queueing.TransferMatrix{{0, 1}, {1, 0}}
	small := cfg
	small.Chunks = 2
	if _, err := DeriveDemand(small, ChannelInput{ArrivalRate: 1, Transfer: closed}, false); err == nil {
		t.Error("closed matrix: want error")
	}
}

func TestFlattenDemands(t *testing.T) {
	demands := []ChannelDemand{
		{CloudDemand: []float64{1, 2}},
		{CloudDemand: []float64{3}},
	}
	flat := FlattenDemandsInto(nil, demands)
	if len(flat) != 3 {
		t.Fatalf("len = %d", len(flat))
	}
	if flat[2].Channel != 1 || flat[2].Chunk != 0 || flat[2].Demand != 3 {
		t.Errorf("flat[2] = %+v", flat[2])
	}
}

// A derivation with peers factors I − Pᵀ once for the traffic equations
// and Proposition 1, and validates the matrix once; its result is the
// separate queueing.Solve and p2p.Solve results bit for bit.
func TestDeriveDemandMatchesSeparateSolves(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := chanCfg()
	for trial := 0; trial < 40; trial++ {
		p := testutil.RandomSubstochastic(cfg.Chunks, r.Float64)
		in := ChannelInput{ArrivalRate: 0.01 + r.Float64(), Transfer: p, MeanUplink: r.Float64() * 120e3}
		got, err := DeriveDemand(cfg, in, true)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eq, err := queueing.Solve(cfg, p, in.ArrivalRate, queueing.DefaultMaxServers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p2p.Solve(p2p.Analysis{Equilibrium: eq, Transfer: p, PeerUpload: in.MeanUplink})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.SameBits(got.Equilibrium.ArrivalRates, eq.ArrivalRates) || !testutil.SameBits(got.Equilibrium.Capacity, eq.Capacity) ||
			!testutil.SameBits(got.PeerSupply, want.PeerSupply) || !testutil.SameBits(got.CloudDemand, want.CloudDemand) {
			t.Fatalf("trial %d: derivation differs from the separate solves", trial)
		}
	}
}

// BenchmarkDeriveDemandSteady is the root BenchmarkDeriveDemand's
// derivation — the 100M-viewer day's 8-chunk channel on the paper's
// viewing matrix in P2P mode, at Λ = 0.05/s with the ≈270 Kbps mean peer
// uplink — run the way the controller runs it: on one deriver reused
// across calls, so its solvers' buffers are warm and a derivation
// allocates nothing. core.DeriveDemand builds fresh solvers on every
// call, so the root benchmark also times their allocation.
func BenchmarkDeriveDemandSteady(b *testing.B) {
	cfg := queueing.Config{
		Chunks:          8,
		PlaybackRate:    50e3,
		ChunkSeconds:    75,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
		SlotsPerVM:      5,
	}
	p, err := viewing.PaperDefault(cfg.Chunks)
	if err != nil {
		b.Fatal(err)
	}
	in := ChannelInput{ArrivalRate: 0.05, Transfer: p, MeanUplink: 34e3}
	var d deriver
	b.ReportAllocs()
	var demand float64
	for i := 0; i < b.N; i++ {
		_, res, err := d.derive(cfg, in, true)
		if err != nil {
			b.Fatal(err)
		}
		demand = mathx.Sum(res.CloudDemand)
	}
	b.ReportMetric(demand, "cloud_Bps")
}
