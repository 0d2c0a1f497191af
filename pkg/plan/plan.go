// Package plan is the analytic planning surface of the CloudMedia SDK: the
// Sec. IV/V pipeline of Wu et al. (ICDCS 2011) as importable building
// blocks.
//
// The pipeline has three stages, each usable on its own:
//
//  1. SolveEquilibrium sizes a channel's chunk queues with the Jackson
//     queueing analysis (Sec. IV-A/B), yielding the per-chunk server demand.
//  2. SolvePeerSupply estimates how much of that demand the P2P overlay
//     covers under rarest-first scheduling (Sec. IV-C), leaving the cloud
//     residual.
//  3. PlanVMs and PlanStorage turn residual demand into concrete rentals
//     against the Table II/III virtual-cluster catalogs under hourly
//     budgets (Sec. V-A).
//
// The one-call composition of all three stages lives in the root cloudmedia
// package as the Pipeline type; this package is for callers who want the
// intermediate artifacts. All bandwidths are bytes per second, matching the
// paper (r = 50 Kbytes/s); multiply by 8/1e6 for Mbps.
package plan

import (
	"cloudmedia/internal/cloud"
	"cloudmedia/internal/p2p"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/viewing"
)

// Channel carries one video channel's parameters: chunk count J, playback
// rate r, chunk playback time T₀, per-VM bandwidth R, and the entry
// distribution. The zero value is invalid; start from PaperChannel or fill
// every field. Validate reports any violated invariant.
type Channel = queueing.Config

// TransferMatrix is the chunk-to-chunk viewing-behaviour matrix P:
// P[i][j] is the probability a viewer who finished chunk i watches chunk j
// next, with row deficits meaning departure. Build one with Sequential,
// SequentialWithJumps, DecayingRetention, or PaperViewing.
type TransferMatrix = queueing.TransferMatrix

// Equilibrium is the solved steady state of one channel: per-chunk arrival
// rates λ_i, minimal server counts m_i, and upload capacities s_i = R·m_i.
type Equilibrium = queueing.Equilibrium

// PeerSupply is the outcome of the peer-supply analysis: expected replica
// counts E[ν_i], peer upload bandwidth Γ_i per chunk, and the cloud
// residual Δ_i = max(0, s_i − Γ_i).
type PeerSupply = p2p.Result

// ChunkDemand is one (channel, chunk) entry of the demand list the rental
// planners consume; Demand is in bytes/s.
type ChunkDemand = provision.ChunkDemand

// VMPlan is a budget-constrained VM rental: fractional allocations per
// cluster, hourly cost, and the utility objective of Eqn. (7).
type VMPlan = provision.VMPlan

// StoragePlan is a budget-constrained NFS rental: chunk placements,
// per-cluster footprints, and hourly cost (Sec. V-A1).
type StoragePlan = provision.StoragePlan

// VMCluster describes one rentable virtual cluster type (a Table II row).
type VMCluster = cloud.VMClusterSpec

// NFSCluster describes one rentable NFS cluster type (a Table III row).
type NFSCluster = cloud.NFSClusterSpec

// ErrInfeasible is wrapped by planner errors when demand cannot be met
// within the budget or catalog capacity; detect it with errors.Is.
var ErrInfeasible = provision.ErrInfeasible

// DefaultVMBandwidth is the paper's per-VM allocation R: 10 Mbps in
// bytes/s.
const DefaultVMBandwidth = cloud.DefaultVMBandwidth

// DefaultVMClusters returns the paper's Table II virtual-cluster catalog.
func DefaultVMClusters() []VMCluster { return cloud.DefaultVMClusters() }

// DefaultNFSClusters returns the paper's Table III NFS-cluster catalog.
func DefaultNFSClusters() []NFSCluster { return cloud.DefaultNFSClusters() }

// PaperChannel returns the channel parameters of the paper's evaluation:
// a 100-minute video in 20 chunks of 300 s, r = 50 KB/s (400 Kbps),
// R = 10 Mbps VMs, and 70% of arrivals starting at chunk 1.
func PaperChannel() Channel {
	return Channel{
		Chunks:          20,
		PlaybackRate:    50e3,
		ChunkSeconds:    300,
		VMBandwidth:     DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
	}
}

// Sequential returns a transfer matrix for strictly in-order viewing:
// chunk i continues to i+1 with probability cont, otherwise the viewer
// departs.
func Sequential(chunks int, cont float64) (TransferMatrix, error) {
	return viewing.Sequential(chunks, cont)
}

// SequentialWithJumps returns the paper's viewing model: continue to the
// next chunk with probability cont·(1−jump), VCR-jump to a uniformly random
// other chunk with probability cont·jump, and depart otherwise.
func SequentialWithJumps(chunks int, cont, jump float64) (TransferMatrix, error) {
	return viewing.SequentialWithJumps(chunks, cont, jump)
}

// DecayingRetention returns a sequential matrix whose continuation
// probability decays geometrically along the video, modelling early
// session abandonment.
func DecayingRetention(chunks int, cont, decay float64) (TransferMatrix, error) {
	return viewing.DecayingRetention(chunks, cont, decay)
}

// PaperViewing returns the transfer matrix family used throughout the
// paper's experiments: sequential viewing with VCR jumps (15-minute mean
// jump interval over 5-minute chunks, 90% per-chunk retention).
func PaperViewing(chunks int) (TransferMatrix, error) {
	return viewing.PaperDefault(chunks)
}

// SolveEquilibrium solves the Jackson queueing network of Sec. IV-A/B for
// external channel arrival rate lambda (users/s): per-chunk traffic rates,
// then the smallest per-chunk server counts whose expected sojourn time
// meets the playback deadline T₀.
func SolveEquilibrium(ch Channel, p TransferMatrix, lambda float64) (Equilibrium, error) {
	return queueing.Solve(ch, p, lambda, 0)
}

// SolvePeerSupply runs the Sec. IV-C analysis on a solved equilibrium:
// expected chunk ownership via Proposition 1, then rarest-first peer upload
// allocation (Eqn. 5). peerUplink is the mean per-peer upload bandwidth u
// in bytes/s. A transfer matrix in which some chunks have no path to a
// departure (viewers who reach them never leave) makes I − Pᵀ singular,
// and SolvePeerSupply then returns an error, as SolveEquilibrium does
// for that matrix.
func SolvePeerSupply(eq Equilibrium, p TransferMatrix, peerUplink float64) (PeerSupply, error) {
	return p2p.Solve(p2p.Analysis{Equilibrium: eq, Transfer: p, PeerUpload: peerUplink})
}

// PlanVMs runs the VM-configuration heuristic of Sec. V-A2: chunk demands
// are filled from clusters in descending marginal-utility order under the
// hourly budget B_M. vmBandwidth is R in bytes/s.
func PlanVMs(demands []ChunkDemand, vmBandwidth float64, clusters []VMCluster, budgetPerHour float64) (VMPlan, error) {
	return provision.PlanVMs(demands, vmBandwidth, clusters, budgetPerHour)
}

// PlanStorage runs the storage-rental heuristic of Sec. V-A1: every chunk
// is placed on exactly one NFS cluster under the hourly budget B_S.
// chunkBytes is the uniform chunk size r·T₀.
func PlanStorage(demands []ChunkDemand, chunkBytes float64, clusters []NFSCluster, budgetPerHour float64) (StoragePlan, error) {
	return provision.PlanStorage(demands, chunkBytes, clusters, budgetPerHour)
}

// Demands flattens one channel's per-chunk cloud demand (bytes/s) into the
// list the planners consume, tagged with the given channel index.
func Demands(channel int, cloudDemand []float64) []ChunkDemand {
	out := make([]ChunkDemand, len(cloudDemand))
	for i, d := range cloudDemand {
		out[i] = ChunkDemand{Channel: channel, Chunk: i, Demand: d}
	}
	return out
}
