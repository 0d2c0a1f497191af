package core

import (
	"fmt"

	"cloudmedia/internal/p2p"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
)

// ChannelInput bundles one channel's per-interval statistics: everything
// the demand derivation needs.
type ChannelInput struct {
	ArrivalRate float64                 // Λ(c), users/s
	Transfer    queueing.TransferMatrix // P(c), estimated or prior
	MeanUplink  float64                 // u, bytes/s (ignored in client-server mode)
}

// ChannelDemand is the derived demand for one channel.
type ChannelDemand struct {
	Equilibrium queueing.Equilibrium
	// CloudDemand[i] is Δ(c,i) in bytes/s: full capacity in client-server
	// mode, the post-peer residual in P2P mode.
	CloudDemand []float64
	// PeerSupply[i] is Γ(c,i) (zero in client-server mode).
	PeerSupply []float64
}

// DeriveDemand runs the Sec. IV analysis for one channel. p2pMode selects
// whether peer supply is subtracted. The result owns its slices.
func DeriveDemand(cfg queueing.Config, in ChannelInput, p2pMode bool) (ChannelDemand, error) {
	var d deriver
	eq, peers, err := d.derive(cfg, in, p2pMode)
	if err != nil {
		return ChannelDemand{}, err
	}
	out := ChannelDemand{
		Equilibrium: eq,
		CloudDemand: make([]float64, cfg.Chunks),
		PeerSupply:  make([]float64, cfg.Chunks),
	}
	if peers.PeerSupply == nil {
		copy(out.CloudDemand, eq.Capacity)
	} else {
		copy(out.CloudDemand, peers.CloudDemand)
		copy(out.PeerSupply, peers.PeerSupply)
	}
	return out, nil
}

// deriver holds the solvers a demand derivation runs on. The controller
// keeps one per worker, so a steady derivation allocates nothing.
type deriver struct {
	queue queueing.Solver
	peers p2p.Solver
}

// derive runs the Sec. IV analysis for one channel into the deriver's
// solvers: the equilibrium, and the peer result when peers were solved
// (a zero Result, nil PeerSupply, otherwise). Both view the solvers'
// buffers and stay valid until the next derive. Every chunk is sized
// within queueing.DefaultMaxServers.
func (d *deriver) derive(cfg queueing.Config, in ChannelInput, p2pMode bool) (queueing.Equilibrium, p2p.Result, error) {
	if in.ArrivalRate < 0 {
		return queueing.Equilibrium{}, p2p.Result{}, fmt.Errorf("core: negative arrival rate %v", in.ArrivalRate)
	}
	if !p2pMode || in.MeanUplink <= 0 {
		eq, err := d.queue.Solve(cfg, in.Transfer, in.ArrivalRate, queueing.DefaultMaxServers)
		if err != nil {
			return queueing.Equilibrium{}, p2p.Result{}, fmt.Errorf("core: demand analysis: %w", err)
		}
		return eq, p2p.Result{}, nil
	}
	// One elimination of I − Pᵀ serves the traffic equations and
	// Proposition 1, and the matrix is validated once, by the first.
	eq, inverse, err := d.queue.SolveWithInverse(cfg, in.Transfer, in.ArrivalRate, queueing.DefaultMaxServers)
	if err != nil {
		return queueing.Equilibrium{}, p2p.Result{}, fmt.Errorf("core: demand analysis: %w", err)
	}
	res, err := d.peers.SolveWithInverse(p2p.Analysis{
		Equilibrium: eq,
		Transfer:    in.Transfer,
		PeerUpload:  in.MeanUplink,
	}, inverse)
	if err != nil {
		return queueing.Equilibrium{}, p2p.Result{}, fmt.Errorf("core: peer supply analysis: %w", err)
	}
	return eq, res, nil
}

// FlattenDemandsInto converts per-channel demands into the flat
// chunk-demand list the provisioning heuristics consume, appending into a
// reused scratch buffer: dst is truncated and refilled, growing only when
// the demand set outgrows its capacity, so a controller that flattens
// every interval allocates nothing in steady state. Safe to reuse across
// rounds because no planner retains the request's demand slice (Greedy
// copies before sorting, Lookahead/StaticPeak copy their per-chunk
// maxima).
//
//cloudmedia:hotpath
func FlattenDemandsInto(dst []provision.ChunkDemand, demands []ChannelDemand) []provision.ChunkDemand {
	dst = dst[:0]
	for c, d := range demands {
		for i, delta := range d.CloudDemand {
			dst = append(dst, provision.ChunkDemand{Channel: c, Chunk: i, Demand: delta})
		}
	}
	return dst
}
