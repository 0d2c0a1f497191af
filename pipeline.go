package cloudmedia

import (
	"context"
	"fmt"

	"cloudmedia/internal/stack"
	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
)

// Pipeline is the one-shot CloudMedia analysis of Sec. IV/V: solve the
// Jackson queueing equilibrium per channel, estimate the peer supply the
// overlay contributes, and turn the residual cloud demand into concrete VM
// and storage rentals under hourly budgets.
//
// Build one with NewPipeline and functional options; the zero value is not
// usable. A Pipeline is immutable after construction and safe for
// concurrent Run calls.
type Pipeline struct {
	channel     plan.Channel
	transfer    plan.TransferMatrix
	rates       []float64
	peerUplink  float64
	vmBudget    float64
	storBudget  float64
	vmClusters  []plan.VMCluster
	nfsClusters []plan.NFSCluster
}

// ChannelAnalysis is the solved demand and supply of one channel.
type ChannelAnalysis struct {
	// Channel is the channel index, matching the order of WithArrivalRate.
	Channel int
	// ArrivalRate is the external arrival rate Λ the channel was solved
	// for, users/s.
	ArrivalRate float64
	// Equilibrium is the solved queueing steady state (Sec. IV-A/B).
	Equilibrium plan.Equilibrium
	// Supply is the peer-supply analysis (Sec. IV-C); nil when the
	// pipeline ran without peer uplink.
	Supply *plan.PeerSupply
	// CloudDemand is the per-chunk capacity to rent, bytes/s: the full
	// equilibrium capacity without peers, the post-peer residual with.
	CloudDemand []float64
}

// Result is the outcome of one Pipeline run.
type Result struct {
	// Channels holds one analysis per configured arrival rate.
	Channels []ChannelAnalysis
	// Demands is the flattened chunk-demand list the planners consumed.
	Demands []plan.ChunkDemand
	// VMPlan and StoragePlan are the budget-constrained rentals covering
	// every channel (Sec. V-A).
	VMPlan      plan.VMPlan
	StoragePlan plan.StoragePlan
}

// TotalCapacity returns Σ s_i across channels: the aggregate upload
// bandwidth needed for smooth playback, bytes/s.
func (r *Result) TotalCapacity() float64 {
	var t float64
	for _, ch := range r.Channels {
		t += ch.Equilibrium.TotalCapacity()
	}
	return t
}

// TotalPeerSupply returns Σ Γ_i across channels, bytes/s.
func (r *Result) TotalPeerSupply() float64 {
	var t float64
	for _, ch := range r.Channels {
		if ch.Supply != nil {
			t += ch.Supply.TotalPeerSupply()
		}
	}
	return t
}

// TotalCloudDemand returns Σ Δ_i across channels: the capacity rented from
// the cloud, bytes/s.
func (r *Result) TotalCloudDemand() float64 {
	var t float64
	for _, ch := range r.Channels {
		for _, d := range ch.CloudDemand {
			t += d
		}
	}
	return t
}

// NewPipeline builds a pipeline from the paper's defaults — the 20-chunk
// PaperChannel, sequential-with-jumps viewing, Λ = 0.25 users/s on a
// single channel, no peer uplink, and a scenario's budget and catalog
// defaults (B_M = $100/h, B_S = $1/h, Table II/III) — overridden by the
// given options. Budgets and catalogs resolve exactly as a scenario's do,
// so a zero budget or an empty catalog means the default here too.
func NewPipeline(opts ...Option) (*Pipeline, error) {
	s := simulate.Settings{Scenario: simulate.Scenario{Spec: simulate.Spec{Channel: plan.PaperChannel()}}}
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}

	sc := stack.Resolve(s.Scenario.Spec)
	p := &Pipeline{
		channel:     sc.Channel,
		rates:       []float64{0.25},
		peerUplink:  s.PeerUplink,
		vmBudget:    sc.VMBudget,
		storBudget:  sc.StorageBudget,
		vmClusters:  sc.VMClusters,
		nfsClusters: sc.NFSClusters,
	}
	if err := p.channel.Validate(); err != nil {
		return nil, err
	}
	// Copy every caller-provided slice: Pipeline promises immutability and
	// concurrent-Run safety, so later caller mutations must not reach it
	// (the catalog options already copy theirs).
	if s.Rates != nil {
		p.rates = append([]float64(nil), s.Rates...)
	}
	for i, r := range p.rates {
		if r < 0 {
			return nil, fmt.Errorf("cloudmedia: negative arrival rate %v for channel %d", r, i)
		}
	}
	if p.peerUplink < 0 {
		return nil, fmt.Errorf("cloudmedia: negative peer uplink %v", p.peerUplink)
	}

	switch {
	case s.Transfer != nil:
		if err := s.Transfer.Validate(); err != nil {
			return nil, err
		}
		if s.Transfer.Size() != p.channel.Chunks {
			return nil, fmt.Errorf("cloudmedia: transfer matrix size %d != chunks %d",
				s.Transfer.Size(), p.channel.Chunks)
		}
		m := make(plan.TransferMatrix, len(s.Transfer))
		for i, row := range s.Transfer {
			m[i] = append([]float64(nil), row...)
		}
		p.transfer = m
	case s.Viewing != nil:
		m, err := plan.SequentialWithJumps(p.channel.Chunks, s.Viewing[0], s.Viewing[1])
		if err != nil {
			return nil, err
		}
		p.transfer = m
	default:
		m, err := plan.PaperViewing(p.channel.Chunks)
		if err != nil {
			return nil, err
		}
		p.transfer = m
	}
	return p, nil
}

// Run executes the full analysis: one equilibrium and peer-supply solve
// per channel, then the VM and storage rental plans across all channels.
// The context is checked between channels, so a cancelled context bounds
// the work of a large multi-channel run.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	res := &Result{}
	for i, rate := range p.rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eq, err := plan.SolveEquilibrium(p.channel, p.transfer, rate)
		if err != nil {
			return nil, fmt.Errorf("cloudmedia: channel %d: %w", i, err)
		}
		ch := ChannelAnalysis{Channel: i, ArrivalRate: rate, Equilibrium: eq}
		if p.peerUplink > 0 {
			supply, err := plan.SolvePeerSupply(eq, p.transfer, p.peerUplink)
			if err != nil {
				return nil, fmt.Errorf("cloudmedia: channel %d: %w", i, err)
			}
			ch.Supply = &supply
			ch.CloudDemand = append([]float64(nil), supply.CloudDemand...)
		} else {
			ch.CloudDemand = append([]float64(nil), eq.Capacity...)
		}
		res.Channels = append(res.Channels, ch)
		res.Demands = append(res.Demands, plan.Demands(i, ch.CloudDemand)...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	vmPlan, err := plan.PlanVMs(res.Demands, p.channel.VMBandwidth, p.vmClusters, p.vmBudget)
	if err != nil {
		return nil, fmt.Errorf("cloudmedia: VM plan: %w", err)
	}
	res.VMPlan = vmPlan

	storagePlan, err := plan.PlanStorage(res.Demands, p.channel.ChunkBytes(), p.nfsClusters, p.storBudget)
	if err != nil {
		return nil, fmt.Errorf("cloudmedia: storage plan: %w", err)
	}
	res.StoragePlan = storagePlan
	return res, nil
}
