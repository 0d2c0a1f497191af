package queueing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cloudmedia/internal/mathx"
)

// paperConfig mirrors the experimental settings of Sec. VI-A: r = 50 KB/s,
// T₀ = 300 s (5-minute chunks), J = 20 (100-minute video), R = 10 Mbps.
func paperConfig() Config {
	return Config{
		Chunks:          20,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     1.25e6, // 10 Mbps in bytes/s
		EntryFirstChunk: 0.7,
	}
}

// sequentialMatrix builds a P where users watch chunks in order and continue
// to the next chunk with probability cont.
func sequentialMatrix(j int, cont float64) TransferMatrix {
	p := NewTransferMatrix(j)
	for i := 0; i < j-1; i++ {
		p[i][i+1] = cont
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := paperConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config should validate: %v", err)
	}
	bad := []Config{
		{},
		{Chunks: -1, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 1},
		{Chunks: 2, PlaybackRate: 0, ChunkSeconds: 1, VMBandwidth: 2},
		{Chunks: 2, PlaybackRate: 1, ChunkSeconds: 0, VMBandwidth: 2},
		{Chunks: 2, PlaybackRate: 2, ChunkSeconds: 1, VMBandwidth: 1}, // R ≤ r
		{Chunks: 2, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 1.5},
		{Chunks: 1, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	c := paperConfig()
	if got := c.ChunkBytes(); got != 15e6 {
		t.Errorf("ChunkBytes = %v, want 15e6 (15 MB per the paper)", got)
	}
	// µ = R/(rT₀) = 1.25e6/15e6: one server finishes a chunk every 12 s.
	if got := c.ServiceRate(); !mathx.ApproxEqual(got, 1.25e6/15e6, 1e-12) {
		t.Errorf("ServiceRate = %v", got)
	}
}

func TestExternalArrivals(t *testing.T) {
	c := paperConfig()
	ext := c.ExternalArrivals(10)
	if !mathx.ApproxEqual(ext[0], 7, 1e-12) {
		t.Errorf("ext[0] = %v, want 7 (α=0.7)", ext[0])
	}
	rest := 3.0 / 19
	for i := 1; i < len(ext); i++ {
		if !mathx.ApproxEqual(ext[i], rest, 1e-12) {
			t.Errorf("ext[%d] = %v, want %v", i, ext[i], rest)
		}
	}
	if !mathx.ApproxEqual(mathx.Sum(ext), 10, 1e-9) {
		t.Errorf("external rates sum to %v, want 10", mathx.Sum(ext))
	}
	one := Config{Chunks: 1, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 1}
	if got := one.ExternalArrivals(5); got[0] != 5 {
		t.Errorf("single chunk ext = %v, want [5]", got)
	}
}

func TestSolveTrafficSequential(t *testing.T) {
	// Pure sequential viewing with α=1: λ_i = Λ·cont^(i−1).
	j, cont, lambda := 5, 0.8, 10.0
	p := sequentialMatrix(j, cont)
	cfg := Config{Chunks: j, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 1}
	var s Solver
	eq, err := s.Solve(cfg, p, lambda, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := lambda
	for i := 0; i < j; i++ {
		if !mathx.ApproxEqual(eq.ArrivalRates[i], want, 1e-9) {
			t.Errorf("λ[%d] = %v, want %v", i, eq.ArrivalRates[i], want)
		}
		want *= cont
	}
}

func TestSolveTrafficFlowConservation(t *testing.T) {
	// At equilibrium the total departure rate Σ λ_i·(1−Σ_j P_ij) must equal
	// the total external arrival rate.
	p := TransferMatrix{
		{0, 0.7, 0.1},
		{0.05, 0, 0.75},
		{0.1, 0.1, 0},
	}
	cfg := Config{Chunks: 3, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 2.0 / 3}
	lambda := 6.0
	var s Solver
	eq, err := s.Solve(cfg, p, lambda, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var out float64
	for i, li := range eq.ArrivalRates {
		out += li * p.DepartureProbability(i)
	}
	if !mathx.ApproxEqual(out, lambda, 1e-9) {
		t.Errorf("departure rate %v != arrival rate %v", out, lambda)
	}
}

// The Solver rejects what the traffic equations cannot solve: a matrix
// of another size, a negative arrival rate, and a closed routing with
// arrivals.
func TestSolveTrafficErrors(t *testing.T) {
	p := sequentialMatrix(3, 0.5)
	cfg := Config{Chunks: 3, PlaybackRate: 1, ChunkSeconds: 1, VMBandwidth: 2, EntryFirstChunk: 1}
	var s Solver
	if _, err := s.Solve(cfg, sequentialMatrix(2, 0.5), 1, 0); err == nil {
		t.Error("matrix size differs from the chunk count: want error")
	}
	if _, err := s.Solve(cfg, p, -2, 0); err == nil {
		t.Error("negative arrival rate: want error")
	}
	closed := TransferMatrix{{0, 1}, {1, 0}}
	cfg.Chunks = 2
	if _, err := s.Solve(cfg, closed, 1, 0); err == nil {
		t.Error("closed routing with arrivals: want error")
	}
}

func TestSolvePaperScenario(t *testing.T) {
	cfg := paperConfig()
	p := sequentialMatrix(cfg.Chunks, 0.9)
	eq, err := Solve(cfg, p, 0.5, 0) // 0.5 arrivals/s ≈ 1800/hour
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	mu := cfg.ServiceRate()
	for i := range eq.Servers {
		if eq.ArrivalRates[i] == 0 {
			continue
		}
		q, err := mathx.NewMMm(eq.ArrivalRates[i], mu, eq.Servers[i])
		if err != nil {
			t.Fatalf("chunk %d unstable at chosen m: %v", i, err)
		}
		if q.MeanSojourn() > cfg.ChunkSeconds+1e-9 {
			t.Errorf("chunk %d sojourn %v exceeds T₀", i, q.MeanSojourn())
		}
		if eq.Capacity[i] != cfg.VMBandwidth*float64(eq.Servers[i]) {
			t.Errorf("chunk %d capacity inconsistent", i)
		}
	}
	if eq.TotalServers() <= 0 || eq.TotalCapacity() <= 0 {
		t.Error("expected positive total demand")
	}
	if eq.ExpectedPopulation() <= 0 {
		t.Error("expected positive population")
	}
}

func TestSolveCapacityExceedsOfferedLoad(t *testing.T) {
	// Provisioned bandwidth must at least cover the raw byte demand
	// λ_i · chunkBytes for each chunk.
	cfg := paperConfig()
	p := sequentialMatrix(cfg.Chunks, 0.85)
	eq, err := Solve(cfg, p, 1.2, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, li := range eq.ArrivalRates {
		if eq.Capacity[i] < li*cfg.ChunkBytes()-1e-6 {
			t.Errorf("chunk %d capacity %v below byte demand %v", i, eq.Capacity[i], li*cfg.ChunkBytes())
		}
	}
}

func TestSolveZeroArrivalRate(t *testing.T) {
	cfg := paperConfig()
	p := sequentialMatrix(cfg.Chunks, 0.9)
	eq, err := Solve(cfg, p, 0, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if eq.TotalServers() != 0 || eq.TotalCapacity() != 0 {
		t.Error("idle channel should need no capacity")
	}
}

func TestSolveRejectsClosedMatrix(t *testing.T) {
	cfg := Config{Chunks: 2, PlaybackRate: 1, ChunkSeconds: 2, VMBandwidth: 3, EntryFirstChunk: 0.5}
	closed := TransferMatrix{{0, 1}, {1, 0}}
	if _, err := Solve(cfg, closed, 1, 0); err == nil {
		t.Error("closed matrix should be rejected")
	}
}

func TestSolveRejectsSizeMismatch(t *testing.T) {
	cfg := paperConfig()
	if _, err := Solve(cfg, sequentialMatrix(5, 0.5), 1, 0); err == nil {
		t.Error("matrix/config size mismatch should error")
	}
}

// Property: demand grows monotonically with the arrival rate.
func TestSolveMonotoneInLambda(t *testing.T) {
	cfg := paperConfig()
	p := sequentialMatrix(cfg.Chunks, 0.9)
	prev := 0.0
	for _, lambda := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		eq, err := Solve(cfg, p, lambda, 0)
		if err != nil {
			t.Fatalf("Solve(%v): %v", lambda, err)
		}
		if tot := eq.TotalCapacity(); tot < prev {
			t.Errorf("capacity not monotone at Λ=%v: %v < %v", lambda, tot, prev)
		} else {
			prev = tot
		}
	}
}

// Property: random substochastic matrices always yield a consistent
// equilibrium (flow conservation and sojourn bound hold).
func TestSolveRandomMatrixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		j := 3 + r.Intn(8)
		p := NewTransferMatrix(j)
		for i := 0; i < j; i++ {
			remain := 0.9 // keep rows strictly substochastic
			for k := 0; k < j; k++ {
				if k == i {
					continue
				}
				v := r.Float64() * remain / 2
				p[i][k] = v
				remain -= v
			}
		}
		cfg := Config{
			Chunks:          j,
			PlaybackRate:    50e3,
			ChunkSeconds:    300,
			VMBandwidth:     1.25e6,
			EntryFirstChunk: 0.5,
		}
		lambda := 0.01 + r.Float64()*0.5
		eq, err := Solve(cfg, p, lambda, 0)
		if err != nil {
			return false
		}
		var out float64
		for i, li := range eq.ArrivalRates {
			out += li * p.DepartureProbability(i)
		}
		if !mathx.ApproxEqual(out, lambda, 1e-6) {
			return false
		}
		mu := cfg.ServiceRate()
		for i, li := range eq.ArrivalRates {
			if li == 0 {
				continue
			}
			q, err := mathx.NewMMm(li, mu, eq.Servers[i])
			if err != nil || q.MeanSojourn() > cfg.ChunkSeconds+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSlotsPerVMValidation(t *testing.T) {
	cfg := paperConfig()
	cfg.SlotsPerVM = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative slots accepted")
	}
	// Slot bandwidth must stay above the playback rate: R/r = 25, so 25
	// slots leaves exactly r per slot — invalid; 24 is the limit.
	cfg = paperConfig()
	cfg.SlotsPerVM = 25
	if err := cfg.Validate(); err == nil {
		t.Error("slot bandwidth equal to playback rate accepted")
	}
	cfg.SlotsPerVM = 24
	if err := cfg.Validate(); err != nil {
		t.Errorf("24 slots rejected: %v", err)
	}
}

func TestSlotBandwidthAndServiceRate(t *testing.T) {
	cfg := paperConfig()
	if got := cfg.SlotBandwidth(); got != cfg.VMBandwidth {
		t.Errorf("default SlotBandwidth = %v, want R", got)
	}
	cfg.SlotsPerVM = 5
	if got := cfg.SlotBandwidth(); !mathx.ApproxEqual(got, cfg.VMBandwidth/5, 1e-12) {
		t.Errorf("SlotBandwidth = %v, want R/5", got)
	}
	// µ scales with the slot, so five slots serve a chunk five times slower each.
	if got, want := cfg.ServiceRate(), cfg.VMBandwidth/5/cfg.ChunkBytes(); !mathx.ApproxEqual(got, want, 1e-12) {
		t.Errorf("ServiceRate = %v, want %v", got, want)
	}
}

func TestFinerSlotsNeverIncreaseCapacity(t *testing.T) {
	// Sub-VM granularity can only shave the integer-ceiling waste: for the
	// same load, total capacity with finer slots is at most the whole-VM
	// capacity (and remains enough for the sojourn bound by construction).
	base := paperConfig()
	p := sequentialMatrix(base.Chunks, 0.9)
	whole, err := Solve(base, p, 0.3, 0)
	if err != nil {
		t.Fatalf("Solve whole: %v", err)
	}
	fine := base
	fine.SlotsPerVM = 5
	slotted, err := Solve(fine, p, 0.3, 0)
	if err != nil {
		t.Fatalf("Solve slotted: %v", err)
	}
	if slotted.TotalCapacity() > whole.TotalCapacity()+1e-6 {
		t.Errorf("finer slots increased capacity: %v > %v", slotted.TotalCapacity(), whole.TotalCapacity())
	}
	// And the slotted solution still meets the sojourn target per chunk.
	mu := fine.ServiceRate()
	for i, li := range slotted.ArrivalRates {
		if li == 0 {
			continue
		}
		q, err := mathx.NewMMm(li, mu, slotted.Servers[i])
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if q.MeanSojourn() > fine.ChunkSeconds+1e-9 {
			t.Errorf("chunk %d sojourn %v exceeds T₀ with slots", i, q.MeanSojourn())
		}
	}
}

func TestViewerLoadIsLittlesLaw(t *testing.T) {
	cfg := paperConfig()
	p := sequentialMatrix(cfg.Chunks, 0.9)
	eq, err := Solve(cfg, p, 0.4, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, li := range eq.ArrivalRates {
		if want := li * cfg.ChunkSeconds; !mathx.ApproxEqual(eq.ViewerLoad[i], want, 1e-9) {
			t.Errorf("ViewerLoad[%d] = %v, want λT₀ = %v", i, eq.ViewerLoad[i], want)
		}
	}
}
