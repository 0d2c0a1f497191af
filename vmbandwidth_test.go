package cloudmedia

import (
	"context"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/pkg/simulate"
)

// fastVMs is an R twice the paper's 10 Mbps: a VM serves 2.5e6 B/s.
const fastVMs = 2.5e6

// TestVMBandwidthReachesThePlanner: the R a scenario sets is the R the
// controller plans and applies with. Every round of a 4-channel, 6 h fluid
// day at twice the paper's R rents TotalDemand / R VMs; a planner left on
// the paper's R would rent twice that, making faster VMs cost more.
func TestVMBandwidthReachesThePlanner(t *testing.T) {
	sc := simulate.Default(simulate.CloudAssisted, 1).With(
		WithFidelity(simulate.FidelityFluid),
		WithChannels(4),
		WithHours(6),
		WithVMBandwidth(fastVMs),
	)
	rep, err := sc.Run(context.Background(), simulate.KeepHistory())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) < 2 {
		t.Fatalf("%d records, want the bootstrap and hourly rounds", len(rep.Records))
	}
	for _, rec := range rep.Records {
		if rec.PlanErr != "" || rec.DemandScale != 1 || !(rec.TotalDemand > 0) {
			t.Fatalf("t=%v: round planned under PlanErr %q, scale %v, demand %v; want a plain round",
				rec.Time, rec.PlanErr, rec.DemandScale, rec.TotalDemand)
		}
		if got, want := rec.VMPlan.TotalVMs(), rec.TotalDemand/fastVMs; !mathx.ApproxEqual(got, want, 1e-9) {
			t.Errorf("t=%v: %v VMs for %v B/s, want %v at R = %v", rec.Time, got, rec.TotalDemand, want, fastVMs)
		}
	}
}

// TestBootstrapAndPipelineShareR: on one channel at twice the paper's R,
// the controller's bootstrap plan and Pipeline.Run both rent demand / R
// VMs, the same count for the same demand.
func TestBootstrapAndPipelineShareR(t *testing.T) {
	sc := simulate.Default(simulate.ClientServer, 1).With(
		WithChannels(1),
		WithHours(1),
		WithVMBandwidth(fastVMs),
	)
	rep, err := sc.Run(context.Background(), simulate.KeepHistory())
	if err != nil {
		t.Fatal(err)
	}
	boot := rep.Records[0]
	ch := sc.Channel
	p, err := NewPipeline(
		WithChunks(ch.Chunks), WithPlaybackRate(ch.PlaybackRate), WithChunkSeconds(ch.ChunkSeconds),
		WithVMBandwidth(ch.VMBandwidth), WithSlotsPerVM(ch.SlotsPerVM), WithEntryFirstChunk(ch.EntryFirstChunk),
		WithArrivalRate(boot.ArrivalRates[0]),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		vms, demand float64
	}{
		{"bootstrap", boot.VMPlan.TotalVMs(), boot.TotalDemand},
		{"pipeline", res.VMPlan.TotalVMs(), res.TotalCloudDemand()},
	} {
		if !(c.demand > 0) || !mathx.ApproxEqual(c.vms, c.demand/fastVMs, 1e-9) {
			t.Errorf("%s: %v VMs for %v B/s, want %v at R = %v", c.name, c.vms, c.demand, c.demand/fastVMs, fastVMs)
		}
	}
}
