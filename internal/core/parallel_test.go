package core

import (
	"reflect"
	"runtime"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

// ensureParallelHost raises GOMAXPROCS so multi-worker configurations
// resolve to real pools even on single-core hosts (sim.EffectiveWorkers
// clamps to GOMAXPROCS at construction time), restoring it on cleanup.
func ensureParallelHost(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runControllerWithWorkers drives a complete stack for several rounds
// with the control plane sharded over `workers` goroutines (the engine
// itself is pinned serial, isolating the controller's fan-outs) and
// returns the full interval history plus the ledger bill.
func runControllerWithWorkers(t *testing.T, mode sim.Mode, pol provision.Policy, pred Predictor, workers int) ([]IntervalRecord, cloud.LedgerTotals) {
	t.Helper()
	transfer := testutil.SequentialWithJumps(t, 5, 0.9, 0.2)
	wl := testutil.FlatWorkload(6, 0.6, 300) // 6 channels: enough shards for an 8-worker pool
	s, cl, broker := testutil.Stack(t, sim.Config{
		Mode:     mode,
		Channel:  testutil.ChannelConfig(5, 60),
		Workload: wl,
		Transfer: transfer,
		Seed:     7,
		Workers:  1,
	})
	opts := resolvedOptions(transfer)
	opts.Policy = pol
	opts.Predictor = pred
	// The oracle feed: pure reads over the workload parameters, safe for
	// the per-channel fan-out by construction.
	opts.TrueRates = func(channel int, start, end float64) float64 {
		r, err := wl.MeanChannelRate(channel, start, end)
		if err != nil {
			return 0
		}
		return r
	}
	opts.Workers = workers
	ctl, err := NewController(s, cl, broker, opts)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	rounds := recordRounds(ctl)
	ctl.Provision(0, bootstrapInputs(t, s, &wl, transfer))
	if err := ctl.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.RunUntil(4 * 600)
	return *rounds, cl.Bill(s.Now())
}

// TestControllerWorkerInvariance pins the control-plane tentpole: the
// full IntervalRecord history — rates, per-channel demands, totals,
// plans, bills — and the ledger must be bit-identical for Workers 1, 4,
// and 8, in both streaming modes, across policies that exercise every
// sharded path: the plain snapshot+derive fan (greedy), the lookahead
// forecast fan with a non-fixed-point predictor so futureDemands really
// re-derives each step (lookahead+EWMA), and the concurrent TrueRates
// reads (oracle).
func TestControllerWorkerInvariance(t *testing.T) {
	ensureParallelHost(t, 8)
	policies := []struct {
		name string
		pol  provision.Policy
		pred Predictor
	}{
		{"greedy", provision.Greedy{}, LastInterval{}},
		{"lookahead-ewma", provision.Lookahead{K: 2}, EWMA{Alpha: 0.5}},
		{"oracle", provision.Oracle{}, LastInterval{}},
	}
	for _, mode := range []sim.Mode{sim.ClientServer, sim.P2P} {
		for _, tc := range policies {
			serialRecs, serialBill := runControllerWithWorkers(t, mode, tc.pol, tc.pred, 1)
			if len(serialRecs) < 4 {
				t.Fatalf("%v/%s: serial run produced %d records, want ≥4", mode, tc.name, len(serialRecs))
			}
			last := serialRecs[len(serialRecs)-1]
			if last.TotalDemand <= 0 {
				t.Fatalf("%v/%s: serial run derived no demand", mode, tc.name)
			}
			for _, workers := range []int{4, 8} {
				recs, bill := runControllerWithWorkers(t, mode, tc.pol, tc.pred, workers)
				if !reflect.DeepEqual(serialRecs, recs) {
					t.Errorf("%v/%s: Workers=%d interval records diverged from serial", mode, tc.name, workers)
				}
				if !reflect.DeepEqual(serialBill, bill) {
					t.Errorf("%v/%s: Workers=%d ledger %+v diverged from serial %+v", mode, tc.name, workers, bill, serialBill)
				}
			}
		}
	}
}
