package experiments

import (
	"context"
	"fmt"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/stack"
)

// Snapshot is one periodic measurement of the running system.
type Snapshot struct {
	Time                   float64
	Quality                float64
	PerChannelQuality      []float64
	PerChannelUsers        []int
	PerChannelReservedMbps []float64
	TotalUsers             int
}

// Hourly is one hour's bandwidth and cost accounting.
type Hourly struct {
	Hour          float64
	ReservedMbps  float64 // cloud capacity provisioned at the sample instant
	UsedMbps      float64 // average cloud bandwidth actually served this hour
	VMCostPerHour float64 // dollars billed this hour for VM rental
}

// Timeline is the full measurement record of one run; every figure is a
// projection of it.
type Timeline struct {
	Snapshots []Snapshot
	Hourlies  []Hourly
	Records   []core.IntervalRecord

	VMCostTotal      float64
	StorageCostTotal float64
	// Bill is the ledger's view of the run under the scenario's pricing
	// plan, dollars split reserved / on-demand / upfront / storage.
	Bill        cloud.LedgerTotals
	MeanQuality float64
}

// bytesPerSecToMbps converts bytes/s to megabits/s, the paper's unit.
func bytesPerSecToMbps(b float64) float64 { return b * 8 / 1e6 }

// RunTimeline builds the system for the scenario, runs it for
// Spec.Hours of simulated time, and returns the measurement record.
func RunTimeline(sc stack.Spec) (*Timeline, error) {
	return runTimeline(stack.Scenario{Spec: sc})
}

// runTimeline is RunTimeline with the scenario's run-time hooks wired;
// it collects the records through OnInterval, replacing any set there.
// The system's run loop (stack.Run) drives it: every sample stop
// adds a Snapshot and every whole-hour stop an Hourly row.
func runTimeline(sc stack.Scenario) (*Timeline, error) {
	tl := &Timeline{}
	sc.OnInterval = func(rec core.IntervalRecord) { tl.Records = append(tl.Records, rec) }
	sys, err := stack.Build(sc, stack.RegionID{})
	if err != nil {
		return nil, err
	}
	s := sys.Sim
	var qSum, prevBytes, prevCost float64
	if err := stack.Run(context.Background(), []*stack.System{sys}, nil, func(stop stack.Stop) {
		if stop.Sample {
			q := s.SampleQuality()
			reserved := make([]float64, s.Channels())
			for c := range reserved {
				if cap, err := s.CloudCapacity(c); err == nil {
					reserved[c] = bytesPerSecToMbps(cap)
				}
			}
			tl.Snapshots = append(tl.Snapshots, Snapshot{
				Time:                   stop.Time,
				Quality:                q.Overall,
				PerChannelQuality:      q.PerChannel,
				PerChannelUsers:        q.UsersPerChannel,
				PerChannelReservedMbps: reserved,
				TotalUsers:             s.TotalUsers(),
			})
			qSum += q.Overall
		}
		if stop.Hour {
			vmCost, _ := sys.Cloud.Costs(stop.Time)
			served := s.CloudBytesServed()
			tl.Hourlies = append(tl.Hourlies, Hourly{
				Hour:          stop.Time / 3600,
				ReservedMbps:  bytesPerSecToMbps(s.TotalCloudCapacity()),
				UsedMbps:      bytesPerSecToMbps((served - prevBytes) / 3600),
				VMCostPerHour: vmCost - prevCost,
			})
			prevBytes, prevCost = served, vmCost
		}
	}); err != nil {
		return nil, err
	}
	now := s.Now()
	tl.VMCostTotal, tl.StorageCostTotal = sys.Cloud.Costs(now)
	tl.Bill = sys.Cloud.Bill(now)
	if n := len(tl.Snapshots); n > 0 {
		tl.MeanQuality = qSum / float64(n)
	}
	return tl, nil
}

// RunTimelines runs the scenarios concurrently and returns their
// timelines in input order. The figure experiments' run-families (mode
// vs. mode, ratio vs. ratio) are independent simulations, so they fan out
// over a pool of at most GOMAXPROCS workers; each Spec is passed by value
// and Build assembles a private engine, so runs share no mutable state.
// The first error (lowest input index) wins.
func RunTimelines(scs ...stack.Spec) ([]*Timeline, error) {
	tls := make([]*Timeline, len(scs))
	errs := make([]error, len(scs))
	sim.FanOut(sim.EffectiveWorkers(0, len(scs)), len(scs), func(i int) {
		tls[i], errs[i] = RunTimeline(scs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("run %d (%v): %w", i, scs[i].Mode, err)
		}
	}
	return tls, nil
}

// TimelineReport runs the scenario exactly as configured — unlike the
// figure experiments, which pin the modes they are defined over, this is
// the registry entry that honours the scenario's Mode, static P2P
// included — and reports the hourly provisioning view: reserved vs used
// bandwidth, VM spend, and streaming quality.
func TimelineReport(sc stack.Spec) (*Result, error) {
	tl, err := RunTimeline(sc)
	if err != nil {
		return nil, fmt.Errorf("timeline run: %w", err)
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Hourly provisioning timeline (%v)", sc.Mode),
		"hour", "reserved_mbps", "used_mbps", "vm_cost_per_hour")
	for _, h := range tl.Hourlies {
		tbl.AddRow(h.Hour, h.ReservedMbps, h.UsedMbps, h.VMCostPerHour)
	}
	return &Result{
		ID:     "timeline",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"mean_quality":           tl.MeanQuality,
			"vm_cost_total_usd":      tl.VMCostTotal,
			"storage_cost_total_usd": tl.StorageCostTotal,
			"mean_reserved_mbps":     tl.MeanReservedMbps(),
			"reserved_covers_used":   tl.ReservedCoversUsedFraction(),
		},
	}, nil
}

// meanHourly averages f over the hourly rows, 0 when there are none.
func (tl *Timeline) meanHourly(f func(Hourly) float64) float64 {
	if len(tl.Hourlies) == 0 {
		return 0
	}
	var sum float64
	for _, h := range tl.Hourlies {
		sum += f(h)
	}
	return sum / float64(len(tl.Hourlies))
}

// MeanHourlyVMCost returns the average of the hourly VM rental costs.
func (tl *Timeline) MeanHourlyVMCost() float64 {
	return tl.meanHourly(func(h Hourly) float64 { return h.VMCostPerHour })
}

// MeanReservedMbps returns the average provisioned cloud bandwidth.
func (tl *Timeline) MeanReservedMbps() float64 {
	return tl.meanHourly(func(h Hourly) float64 { return h.ReservedMbps })
}

// ReservedCoversUsedFraction returns the fraction of hours in which the
// provisioned bandwidth was at least the used bandwidth — Fig. 4's
// "provisioned is larger than used in the majority of time".
func (tl *Timeline) ReservedCoversUsedFraction() float64 {
	return tl.meanHourly(func(h Hourly) float64 {
		if h.ReservedMbps >= h.UsedMbps {
			return 1
		}
		return 0
	})
}
