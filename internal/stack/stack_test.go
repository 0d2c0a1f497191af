package stack

import (
	"context"
	"reflect"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/sim"
)

// TestValidateRejectsNegatives: Build resolves only the == 0 spellings of
// the interval and budgets, so negatives must be rejected here or they
// slip through into the controller — where a negative budget fails every
// plan round and bills $0.
func TestValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"negative interval", func(sc *Spec) { sc.IntervalSeconds = -600 }},
		{"negative vm budget", func(sc *Spec) { sc.VMBudget = -100 }},
		{"negative storage budget", func(sc *Spec) { sc.StorageBudget = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := DefaultSpec(modes.CloudAssisted, 1)
			if err := sc.Validate(); err != nil {
				t.Fatalf("default scenario rejected: %v", err)
			}
			tc.mutate(&sc)
			if err := sc.Validate(); err == nil {
				t.Errorf("%s accepted by Validate", tc.name)
			}
			if _, err := Build(Scenario{Spec: sc}, RegionID{}); err == nil {
				t.Errorf("%s accepted by Build", tc.name)
			}
		})
	}
}

// TestBuildResolvesDefaults: a Spec that leaves every zero-means-default
// value unset (an empty catalog counts as unset) runs exactly like one
// that spells the defaults out, on both engines: Resolve, which Build
// calls, is the one place they resolve (sim.Config.Resolve, for
// Scheduling).
func TestBuildResolvesDefaults(t *testing.T) {
	for _, fidelity := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		run := func(sc Spec) (Spec, []core.IntervalRecord, cloud.LedgerTotals) {
			t.Helper()
			sc.Fidelity = fidelity
			sc.Hours = 3
			var recs []core.IntervalRecord
			sys, err := Build(Scenario{Spec: sc, OnInterval: func(rec core.IntervalRecord) { recs = append(recs, rec) }}, RegionID{})
			if err != nil {
				t.Fatalf("%v: %v", fidelity, err)
			}
			end := sc.Hours * 3600
			sys.Sim.RunUntil(end)
			return sys.Scenario.Spec, recs, sys.Cloud.Bill(end)
		}
		unset := DefaultSpec(modes.CloudAssisted, 1)
		unset.IntervalSeconds, unset.SampleSeconds = 0, 0
		unset.VMBudget, unset.StorageBudget = 0, 0
		unset.VMClusters, unset.NFSClusters = []cloud.VMClusterSpec{}, nil
		explicit := DefaultSpec(modes.CloudAssisted, 1)
		explicit.IntervalSeconds, explicit.SampleSeconds = 3600, 900
		explicit.VMBudget, explicit.StorageBudget = 100, 1
		explicit.VMClusters, explicit.NFSClusters = cloud.DefaultVMClusters(), cloud.DefaultNFSClusters()
		explicit.Predictor = core.LastInterval{}
		explicit.Policy = provision.Greedy{}
		explicit.Scheduling = sim.RarestFirst

		gotSpec, gotRecs, gotBill := run(unset)
		wantSpec, wantRecs, wantBill := run(explicit)
		// The budgets do not bind on this day, so the records alone would
		// not catch a wrong budget default: compare the resolved Specs
		// too. Scheduling is the engines' to resolve, so Build keeps it.
		if gotSpec.Scheduling != 0 {
			t.Errorf("%v: Build resolved Scheduling to %v; the engines resolve it", fidelity, gotSpec.Scheduling)
		}
		gotSpec.Scheduling = sim.RarestFirst
		if !reflect.DeepEqual(gotSpec, wantSpec) {
			t.Errorf("%v: Build resolved %+v, want %+v", fidelity, gotSpec, wantSpec)
		}
		if len(wantRecs) != 4 {
			t.Fatalf("%v: %d records, want the bootstrap and 3 hourly rounds", fidelity, len(wantRecs))
		}
		if !reflect.DeepEqual(gotRecs, wantRecs) {
			t.Errorf("%v: records with the defaults unset differ from the explicit defaults", fidelity)
		}
		if !reflect.DeepEqual(gotBill, wantBill) {
			t.Errorf("%v: bill %+v with the defaults unset, want %+v", fidelity, gotBill, wantBill)
		}
	}
}

// TestRunStopSchedule pins the stops of the one run loop over two systems:
// the sampling grid (a period that does not divide the hour), the whole
// hours, the ascending marks (one at t=0, a duplicate, one on the grid,
// one at and one past the end) and the end of the run. At every stop both
// systems have run to it, and a mark alone sets neither flag.
func TestRunStopSchedule(t *testing.T) {
	var systems []*System
	for seed := int64(1); seed <= 2; seed++ {
		sc := DefaultSpec(modes.CloudAssisted, 1)
		sc.Hours, sc.SampleSeconds, sc.Seed = 2, 1000, seed
		sys, err := Build(Scenario{Spec: sc}, RegionID{})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	var got []Stop
	marks := []float64{0, 500, 500, 2000, 7200, 9000}
	if err := Run(context.Background(), systems, marks, func(stop Stop) {
		for i, sys := range systems {
			if now := sys.Sim.Now(); now != stop.Time {
				t.Errorf("stop %v: system %d at %v", stop.Time, i, now)
			}
		}
		got = append(got, stop)
	}); err != nil {
		t.Fatal(err)
	}
	want := []Stop{
		{Time: 0}, {Time: 500}, {Time: 1000, Sample: true}, {Time: 2000, Sample: true},
		{Time: 3000, Sample: true}, {Time: 3600, Hour: true}, {Time: 4000, Sample: true},
		{Time: 5000, Sample: true}, {Time: 6000, Sample: true}, {Time: 7000, Sample: true},
		{Time: 7200, Sample: true, Hour: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stops %+v, want %+v", got, want)
	}
}
