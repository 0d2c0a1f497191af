package queueing

import (
	"fmt"
	"math"
	"slices"

	"cloudmedia/internal/mathx"
)

// DefaultMaxServers bounds the per-chunk server search. The paper's testbed
// tops out at 150 VMs; we leave generous headroom for larger scenarios.
const DefaultMaxServers = 100000

// Config carries the channel parameters shared by the whole analysis.
// Bandwidths are in bytes per second to match the paper (r = 50 Kbytes/s).
type Config struct {
	Chunks          int     // J: number of chunks the video is divided into
	PlaybackRate    float64 // r: streaming playback rate, bytes/s
	ChunkSeconds    float64 // T₀: playback time of one chunk, seconds
	VMBandwidth     float64 // R: bandwidth allocated to each VM, bytes/s (R > r)
	EntryFirstChunk float64 // α: fraction of arrivals starting at chunk 1

	// SlotsPerVM sets the capacity granularity of the queueing "servers":
	// each server has bandwidth R/SlotsPerVM. 0 or 1 reproduces the paper's
	// literal mapping µ = R/(rT₀) (one server = one whole VM). Larger
	// values model the fractional VM shares that Eqn. (7)'s z variables
	// permit: a chunk can be provisioned a fraction of a VM's bandwidth.
	// Without this, every warm chunk is floored at a whole VM (10 Mbps),
	// which with the paper's own parameters would put the total reserve an
	// order of magnitude above actual usage — contradicting Fig. 4's
	// reserved ≈ 1.5–2× used. See DESIGN.md.
	SlotsPerVM int
}

// Validate checks the configuration invariants from Sec. III-B/C.
func (c Config) Validate() error {
	// Comparisons are written so NaN fails them; MaxFloat64 bounds rule
	// out infinities without a call on this per-Solve path.
	switch {
	case c.Chunks <= 0:
		return fmt.Errorf("queueing: non-positive chunk count %d", c.Chunks)
	case !(c.PlaybackRate > 0 && c.PlaybackRate <= math.MaxFloat64):
		return fmt.Errorf("queueing: playback rate %v not positive and finite", c.PlaybackRate)
	case !(c.ChunkSeconds > 0 && c.ChunkSeconds <= math.MaxFloat64):
		return fmt.Errorf("queueing: chunk duration %v not positive and finite", c.ChunkSeconds)
	case !(c.VMBandwidth > c.PlaybackRate && c.VMBandwidth <= math.MaxFloat64):
		return fmt.Errorf("queueing: VM bandwidth R=%v must be finite and exceed playback rate r=%v", c.VMBandwidth, c.PlaybackRate)
	case !(c.EntryFirstChunk >= 0 && c.EntryFirstChunk <= 1):
		return fmt.Errorf("queueing: entry fraction α=%v outside [0,1]", c.EntryFirstChunk)
	case c.Chunks == 1 && c.EntryFirstChunk != 1:
		return fmt.Errorf("queueing: single-chunk channel requires α=1, got %v", c.EntryFirstChunk)
	case c.SlotsPerVM < 0:
		return fmt.Errorf("queueing: negative slots per VM %d", c.SlotsPerVM)
	case c.SlotsPerVM > 0 && c.VMBandwidth/float64(c.SlotsPerVM) <= c.PlaybackRate:
		return fmt.Errorf("queueing: slot bandwidth R/%d=%v must exceed playback rate %v",
			c.SlotsPerVM, c.VMBandwidth/float64(c.SlotsPerVM), c.PlaybackRate)
	}
	return nil
}

// slots returns the effective slot count (≥1).
func (c Config) slots() int {
	if c.SlotsPerVM <= 0 {
		return 1
	}
	return c.SlotsPerVM
}

// SlotBandwidth returns the bandwidth of one queueing server, R/SlotsPerVM.
func (c Config) SlotBandwidth() float64 { return c.VMBandwidth / float64(c.slots()) }

// ChunkBytes returns the size of one chunk, r·T₀ bytes.
func (c Config) ChunkBytes() float64 { return c.PlaybackRate * c.ChunkSeconds }

// ServiceRate returns µ = (R/slots)/(r·T₀), the rate at which one queueing
// server (one VM-bandwidth slot) completes chunk downloads. With the
// default SlotsPerVM of 1 this is the paper's µ = R/(rT₀).
func (c Config) ServiceRate() float64 { return c.SlotBandwidth() / c.ChunkBytes() }

// ExternalArrivals splits the channel arrival rate Λ across chunk queues:
// α·Λ enters at chunk 1 and the remaining (1−α)·Λ is spread uniformly over
// chunks 2..J (Sec. IV-A).
func (c Config) ExternalArrivals(lambda float64) []float64 {
	ext := make([]float64, c.Chunks)
	c.externalArrivalsInto(ext, lambda)
	return ext
}

// externalArrivalsInto is ExternalArrivals writing into ext (len Chunks).
func (c Config) externalArrivalsInto(ext []float64, lambda float64) {
	if c.Chunks == 1 {
		ext[0] = lambda
		return
	}
	ext[0] = c.EntryFirstChunk * lambda
	rest := (1 - c.EntryFirstChunk) * lambda / float64(c.Chunks-1)
	for i := 1; i < c.Chunks; i++ {
		ext[i] = rest
	}
}

// solveTrafficInto solves the Jackson traffic equations (Eqn. 1),
//
//	λ_i = ext_i + Σ_j λ_j · P[j][i],
//
// i.e. (I − Pᵀ)·λ = ext, writing the per-queue aggregate arrival rates
// into lambda (len J). Its caller, Solver.solve, builds ext (len J, no
// negative rate) from a validated Config and a non-negative Λ. work is
// the solve's scratch: len ≥ J²+J, or 2J²+J when inv is not nil. A
// non-nil inv (len J²) also receives (I − Pᵀ)⁻¹, row-major, from the
// same elimination: the identity rides beside the external rates as J
// more right-hand sides. mathx.SolveManyInPlace gives each column
// SolveInPlace's bits, so the rates are the same either way.
func solveTrafficInto(lambda, inv, work []float64, p TransferMatrix, ext []float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	j := p.Size()
	// (I − Pᵀ) row-major, then the right-hand sides, in one workspace.
	a := work[:j*j]
	for i := 0; i < j; i++ {
		row := a[i*j : (i+1)*j]
		for k := range row {
			row[k] = -p[k][i] // Pᵀ
		}
		row[i] += 1
	}
	if inv == nil {
		rhs := work[j*j : j*j+j]
		copy(rhs, ext)
		if err := mathx.SolveInPlace(a, rhs, lambda); err != nil {
			return fmt.Errorf("queueing: traffic equations: %w", err)
		}
	} else {
		// Row q of the J×(J+1) right-hand sides is [ext_q | e_q].
		k := j + 1
		b := work[j*j : j*j+j*k]
		clear(b)
		for q, e := range ext {
			b[q*k], b[q*k+1+q] = e, 1
		}
		if err := mathx.SolveManyInPlace(a, b, k); err != nil {
			return fmt.Errorf("queueing: traffic equations: %w", err)
		}
		for q := range lambda {
			lambda[q] = b[q*k]
			copy(inv[q*j:(q+1)*j], b[q*k+1:(q+1)*k])
		}
	}
	for i, l := range lambda {
		if l < 0 {
			if l > -1e-9 {
				lambda[i] = 0
				continue
			}
			return fmt.Errorf("queueing: negative arrival rate %v at queue %d (non-substochastic routing?)", l, i)
		}
	}
	return nil
}

// Equilibrium is the solved steady state of one channel: the demand side of
// the paper's analysis.
type Equilibrium struct {
	Config Config
	// ArrivalRates λ_i for each chunk queue, jobs/s.
	ArrivalRates []float64
	// Servers m_i: minimal per-chunk server counts for smooth playback, in
	// slot units (one slot = R/SlotsPerVM of bandwidth).
	Servers []int
	// MeanUsers E[n_i]: expected number of users in each chunk queue
	// (waiting + downloading) at the sized server counts.
	MeanUsers []float64
	// ViewerLoad is λ_i·T₀: the expected number of viewers concurrently
	// engaged with chunk i when every queue meets the design sojourn T₀
	// (Little's law). This — not the instantaneous download-queue
	// population — is the "peers in Q_i" count that the P2P ownership
	// analysis of Sec. IV-C propagates.
	ViewerLoad []float64
	// Capacity s_i = R·m_i: total upload bandwidth to serve chunk i, bytes/s.
	Capacity []float64
}

// TotalCapacity returns Σ_i s_i, the aggregate upload bandwidth the channel
// needs for smooth playback, bytes/s.
func (e Equilibrium) TotalCapacity() float64 { return mathx.Sum(e.Capacity) }

// TotalServers returns Σ_i m_i.
func (e Equilibrium) TotalServers() int {
	var n int
	for _, m := range e.Servers {
		n += m
	}
	return n
}

// ExpectedPopulation returns Σ_i E[n_i], the expected number of concurrent
// users in the channel.
func (e Equilibrium) ExpectedPopulation() float64 { return mathx.Sum(e.MeanUsers) }

// Solve computes the channel equilibrium for external arrival rate Λ and
// transfer matrix P: it solves the traffic equations, then sizes each chunk
// queue to the smallest m_i whose expected sojourn time is at most T₀
// (Sec. IV-B). maxServers ≤ 0 selects DefaultMaxServers.
func Solve(cfg Config, p TransferMatrix, lambda float64, maxServers int) (Equilibrium, error) {
	var s Solver
	return s.Solve(cfg, p, lambda, maxServers)
}

// Solver is Solve with storage it keeps between calls: the equilibrium it
// returns views the solver's buffers and stays valid only until its next
// Solve. A controller deriving many channels per round keeps one per
// worker, so the steady solve allocates nothing. The zero value is ready.
type Solver struct {
	eq   Equilibrium
	work []float64 // (I − Pᵀ), its right-hand sides, and the external rates
	inv  []float64 // (I − Pᵀ)⁻¹ for SolveWithInverse
}

// Solve is the package-level Solve into the solver's buffers.
func (s *Solver) Solve(cfg Config, p TransferMatrix, lambda float64, maxServers int) (Equilibrium, error) {
	return s.solve(cfg, p, lambda, maxServers, false)
}

// SolveWithInverse is Solve that also returns M⁻¹ for M = I − Pᵀ, J×J
// row-major, from the one elimination that solves the traffic
// equations; the equilibrium has Solve's bits. The inverse views the
// solver's buffer like the equilibrium does. It is what
// p2p.Solver.SolveWithInverse takes, so a derivation with peers
// factors M once.
func (s *Solver) SolveWithInverse(cfg Config, p TransferMatrix, lambda float64, maxServers int) (Equilibrium, []float64, error) {
	eq, err := s.solve(cfg, p, lambda, maxServers, true)
	if err != nil {
		return Equilibrium{}, nil, err
	}
	return eq, s.inv, nil
}

// solve is Solve, filling s.inv as well when withInverse is set.
func (s *Solver) solve(cfg Config, p TransferMatrix, lambda float64, maxServers int, withInverse bool) (Equilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return Equilibrium{}, err
	}
	if lambda < 0 {
		return Equilibrium{}, fmt.Errorf("queueing: negative channel arrival rate %v", lambda)
	}
	if p.Size() != cfg.Chunks {
		return Equilibrium{}, fmt.Errorf("queueing: matrix size %d != chunks %d", p.Size(), cfg.Chunks)
	}
	if lambda > 0 && !p.HasDeparture() {
		return Equilibrium{}, fmt.Errorf("queueing: transfer matrix admits no departures; no equilibrium exists")
	}
	if maxServers <= 0 {
		maxServers = DefaultMaxServers
	}

	j := cfg.Chunks
	rhs := j
	var inv []float64
	if withInverse {
		rhs = j * (j + 1)
		s.inv = slices.Grow(s.inv[:0], j*j)[:j*j]
		inv = s.inv
	}
	s.work = slices.Grow(s.work[:0], j*j+rhs+j)[:j*j+rhs+j]
	ext := s.work[j*j+rhs:]
	cfg.externalArrivalsInto(ext, lambda)
	eq := &s.eq
	eq.Config = cfg
	eq.ArrivalRates = slices.Grow(eq.ArrivalRates[:0], j)[:j]
	if err := solveTrafficInto(eq.ArrivalRates, inv, s.work, p, ext); err != nil {
		return Equilibrium{}, err
	}
	eq.Servers = slices.Grow(eq.Servers[:0], j)[:j]
	eq.MeanUsers = slices.Grow(eq.MeanUsers[:0], j)[:j]
	eq.ViewerLoad = slices.Grow(eq.ViewerLoad[:0], j)[:j]
	eq.Capacity = slices.Grow(eq.Capacity[:0], j)[:j]

	mu := cfg.ServiceRate()
	for i, li := range eq.ArrivalRates {
		eq.Servers[i], eq.MeanUsers[i], eq.ViewerLoad[i], eq.Capacity[i] = 0, 0, 0, 0
		if li == 0 {
			continue // idle chunk: no capacity needed
		}
		eq.ViewerLoad[i] = li * cfg.ChunkSeconds
		q, err := mathx.MinServersForSojourn(li, mu, cfg.ChunkSeconds, maxServers)
		if err != nil {
			return Equilibrium{}, fmt.Errorf("queueing: sizing chunk %d: %w", i, err)
		}
		eq.Servers[i] = q.Servers
		eq.MeanUsers[i] = q.MeanJobs()
		eq.Capacity[i] = cfg.SlotBandwidth() * float64(q.Servers)
	}
	return *eq, nil
}
