package main

import (
	"fmt"
	"time"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/p2p"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/simulate"
)

// The replay harness measures the layers a run reaches through no public
// seam — chunk-queue sizing (queueing.Solve), peer supply (p2p.Solve), and
// the broker/cloud apply path — by feeding the traced day's recorded
// inputs into their public functions. It is a replay, not the live call:
// every channel is sized with the scenario's prior transfer matrix and
// the workload's mean peer uplink (the live controller uses its measured
// matrix and uplink after t=0), and faults are not replayed into the
// cloud.

// The controller's peer-supply trust and provisioning headroom, as the
// stack builder wires them.
const (
	peerSupplyTrust   = 0.7
	provisionHeadroom = 1.2
)

// replayer sizes channels exactly as the controller derives demand.
type replayer struct {
	cfg    queueing.Config
	prior  queueing.TransferMatrix
	uplink float64
	p2p    bool
}

func newReplayer(sc simulate.Scenario) (*replayer, error) {
	// Jump probability per chunk ≈ T₀ / mean jump interval, the stack
	// builder's prior.
	jump := sc.Channel.ChunkSeconds / sc.Workload.JumpMeanSeconds
	if jump > 1 {
		jump = 1
	}
	prior, err := viewing.SequentialWithJumps(sc.Channel.Chunks, 0.9, jump)
	if err != nil {
		return nil, fmt.Errorf("replay prior: %w", err)
	}
	uplink := sc.Workload.PeerUplink
	if sc.UplinkRatio > 0 {
		if uplink, err = workload.UplinkForRatio(sc.Channel.PlaybackRate, sc.UplinkRatio); err != nil {
			return nil, fmt.Errorf("replay uplink: %w", err)
		}
	}
	engineMode, _, err := modes.Engine(sc.Mode)
	if err != nil {
		return nil, err
	}
	return &replayer{cfg: sc.Channel, prior: prior, uplink: uplink.Mean(), p2p: engineMode == sim.P2P}, nil
}

// sizingStats is the replayed work of the sizing and peer-supply layers.
type sizingStats struct {
	solves    int
	solveBusy time.Duration
	solveUs   []float64 // per-solve wall time, µs
	servers   int       // Σ m over every solve
	// solveErrors and p2pErrors count derivations that failed; the
	// controller gives such a channel zero demand for the round.
	solveErrors int
	p2pSolves   int
	p2pBusy     time.Duration
	p2pErrors   int
	// bootBusy is the part of solveBusy + p2pBusy spent on the t=0
	// bootstrap round, which the live run spends inside set-up.
	bootBusy time.Duration
}

// derive sizes one channel at arrival rate lambda and returns its cloud
// demand summed over chunks, in the controller's accumulation order.
func (r *replayer) derive(lambda float64, st *sizingStats) (float64, error) {
	start := time.Now()
	eq, err := queueing.Solve(r.cfg, r.prior, lambda, 0)
	d := time.Since(start)
	st.solves++
	st.solveBusy += d
	st.solveUs = append(st.solveUs, float64(d)/float64(time.Microsecond))
	if err != nil {
		st.solveErrors++
		return 0, fmt.Errorf("replay sizing at Λ=%v: %w", lambda, err)
	}
	st.servers += eq.TotalServers()
	peer := make([]float64, len(eq.Capacity))
	if r.p2p && r.uplink > 0 {
		start = time.Now()
		res, err := p2p.Solve(p2p.Analysis{Equilibrium: eq, Transfer: r.prior, PeerUpload: r.uplink})
		st.p2pSolves++
		st.p2pBusy += time.Since(start)
		if err != nil {
			st.p2pErrors++
			return 0, fmt.Errorf("replay peer supply at Λ=%v: %w", lambda, err)
		}
		peer = res.PeerSupply
	}
	var total float64
	for i := range eq.Capacity {
		delta := eq.Capacity[i] - peerSupplyTrust*peer[i]
		if delta < 0 {
			delta = 0
		}
		total += delta * provisionHeadroom
	}
	return total, nil
}

// checkBootstrap replays the t=0 round, whose inputs are known exactly
// (prior matrix, workload uplink), and requires every channel's demand to
// match the recorded one bit for bit.
func (r *replayer) checkBootstrap(rec simulate.IntervalRecord) error {
	var st sizingStats
	for ch, rate := range rec.ArrivalRates {
		got, err := r.derive(rate, &st)
		if err != nil {
			return err
		}
		if got != rec.DemandPerChannel[ch] {
			return fmt.Errorf("bootstrap replay: channel %d demand %v, recorded %v", ch, got, rec.DemandPerChannel[ch])
		}
	}
	return nil
}

// forecast is one value the Predictor wrapper returned, tagged with the
// provisioning round it was made in.
type forecast struct {
	round int
	value float64
}

// replaySizing re-derives every demand the day's rounds derived: each
// round's recorded arrival rates, then its lookahead forecasts. Inside a
// round the controller first forecasts every channel's next interval
// (those values are the recorded rates; the bootstrap makes no such
// calls), then iterates lookahead steps channel by channel, reusing the
// previous step's derivation when a forecast repeats its rate — the
// replay does the same. A derivation that fails is counted in the stats
// and the replay goes on, as the controller does; only forecasts that do
// not fit the round's shape are an error.
func (r *replayer) replaySizing(records []simulate.IntervalRecord, forecasts []forecast, lookahead int) (sizingStats, error) {
	var st sizingStats
	next := 0
	for round, rec := range records {
		start := next
		for next < len(forecasts) && forecasts[next].round == round {
			next++
		}
		fs := forecasts[start:next]
		channels := len(rec.ArrivalRates)
		if round > 0 {
			if len(fs) < channels {
				return st, fmt.Errorf("round %d: %d forecasts for %d channels", round, len(fs), channels)
			}
			fs = fs[channels:]
		}
		before := st.solveBusy + st.p2pBusy
		for _, rate := range rec.ArrivalRates {
			_, _ = r.derive(rate, &st) // a failure is counted in st
		}
		if len(fs) > 0 {
			if lookahead <= 0 || len(fs) != channels*lookahead {
				return st, fmt.Errorf("round %d: %d lookahead forecasts for %d channels × %d steps", round, len(fs), channels, lookahead)
			}
			for ch := 0; ch < channels; ch++ {
				prev := rec.ArrivalRates[ch]
				for _, f := range fs[ch*lookahead : (ch+1)*lookahead] {
					if f.value != prev {
						_, _ = r.derive(f.value, &st) // a failure is counted in st
					}
					prev = f.value
				}
			}
		}
		if round == 0 {
			st.bootBusy = st.solveBusy + st.p2pBusy - before
		}
	}
	return st, nil
}

// cloudStats is the replayed work of the broker and cloud layer.
type cloudStats struct {
	submits int
	errors  int
	busy    time.Duration
}

// replayCloud submits every recorded plan to a fresh cloud through its
// broker and advances the ledger at every round and snapshot, as the run
// does.
func replayCloud(sc simulate.Scenario, records []simulate.IntervalRecord, snapshotTimes []float64) (cloudStats, error) {
	vmSpecs := sc.VMClusters
	if vmSpecs == nil {
		vmSpecs = cloud.DefaultVMClusters()
	}
	nfsSpecs := sc.NFSClusters
	if nfsSpecs == nil {
		nfsSpecs = cloud.DefaultNFSClusters()
	}
	cl, err := cloud.New(vmSpecs, nfsSpecs, cloud.WithPricing(sc.Pricing))
	if err != nil {
		return cloudStats{}, fmt.Errorf("replay cloud: %w", err)
	}
	broker, err := cloud.NewBroker(cl)
	if err != nil {
		return cloudStats{}, fmt.Errorf("replay broker: %w", err)
	}
	var st cloudStats
	snap := 0
	advanceSnapshots := func(until float64) {
		for snap < len(snapshotTimes) && snapshotTimes[snap] <= until {
			start := time.Now()
			cl.Advance(snapshotTimes[snap])
			st.busy += time.Since(start)
			snap++
		}
	}
	for _, rec := range records {
		advanceSnapshots(rec.Time)
		start := time.Now()
		if rec.PlanErr == "" {
			st.submits++
			if err := broker.Submit(applyRequest(cl, rec)); err != nil {
				st.errors++
			}
		}
		cl.Advance(rec.Time)
		st.busy += time.Since(start)
	}
	advanceSnapshots(sc.Hours * 3600)
	return st, nil
}

// applyRequest is the SLA reconfiguration the controller submits for a
// round: every VM cluster's target (0 where the plan rents none) and, once
// a storage plan exists, every NFS cluster's footprint.
func applyRequest(cl *cloud.Cloud, rec simulate.IntervalRecord) cloud.Request {
	req := cloud.Request{Time: rec.Time, VMTargets: map[string]int{}}
	for _, spec := range cl.VMClusters() {
		req.VMTargets[spec.Name] = 0
	}
	for name, n := range rec.VMPlan.RentalVMs() {
		req.VMTargets[name] = n
	}
	if rec.StoragePlan.GBPerCluster != nil {
		req.StorageGB = map[string]float64{}
		for _, spec := range cl.NFSClusters() {
			req.StorageGB[spec.Name] = rec.StoragePlan.GBPerCluster[spec.Name]
		}
	}
	return req
}
