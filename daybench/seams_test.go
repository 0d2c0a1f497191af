package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"cloudmedia"
	"cloudmedia/internal/cloud"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/simulate"
)

func TestSourceWrapperForwardsBatchAndClone(t *testing.T) {
	day := newTracedDay(NewTracer(), "sim")
	sc := simulate.Default(simulate.CloudAssisted, 1)
	var src simulate.Source = &tracedSource{inner: sc.Workload.Source(), day: day}
	if _, ok := src.(workload.BatchSource); !ok {
		t.Fatal("wrapped source lost BatchSource")
	}
	clone, ok := src.CloneSource().(*tracedSource)
	if !ok || clone.day != day {
		t.Fatalf("clone %T is not a wrapped source reporting to the same day", src.CloneSource())
	}
	const at = 20.5 * 3600 // inside the evening flash crowd
	dst := make([]float64, src.NumChannels())
	if err := workload.RatesInto(clone, at, dst); err != nil {
		t.Fatal(err)
	}
	for c := range dst {
		r, err := src.Rate(c, at)
		if err != nil || r != dst[c] {
			t.Errorf("channel %d: Rate %v (%v), batched %v", c, r, err, dst[c])
		}
	}
	if n, _ := day.tr.CallTotals("workload.source"); n != 1+len(dst) {
		t.Errorf("%d source calls recorded, want %d", n, 1+len(dst))
	}
}

func TestPredictorAndPolicyWrappersForwardValidate(t *testing.T) {
	day := newTracedDay(NewTracer(), "sim")
	if err := (tracedPredictor{inner: simulate.EWMA{Alpha: 2}, day: day}).Validate(); err == nil {
		t.Error("invalid EWMA passed through the wrapper")
	}
	if err := (tracedPredictor{inner: simulate.LastInterval{}, day: day}).Validate(); err != nil {
		t.Errorf("predictor without Validate: %v", err)
	}
	if err := (tracedPolicy{inner: simulate.Lookahead{K: -1}, day: day}).Validate(); err == nil {
		t.Error("invalid lookahead passed through the wrapper")
	}
	pol := tracedPolicy{inner: simulate.Lookahead{SpotHedge: true}, day: day}
	if pol.Name() != "lookahead-hedged" || pol.Lookahead() != 3 || pol.Oracle() {
		t.Errorf("policy wrapper reports %q/%d/%v", pol.Name(), pol.Lookahead(), pol.Oracle())
	}
}

func TestPlannerWrapperForwardsFutureDemander(t *testing.T) {
	day := newTracedDay(NewTracer(), "sim")
	planner := tracedPolicy{inner: simulate.StaticPeak{}, day: day}.NewPlanner()
	fd, ok := planner.(provision.FutureDemander)
	if !ok {
		t.Fatal("wrapped planner lost FutureDemander")
	}
	if !fd.NeedsFuture() {
		t.Fatal("static peak wants its horizon before the first plan")
	}
	_, err := planner.Plan(provision.PlanRequest{
		IntervalSeconds: 3600,
		Demands:         []provision.ChunkDemand{{Channel: 0, Chunk: 0, Demand: 2e6}},
		VMBandwidth:     cloud.DefaultVMBandwidth,
		VMClusters:      cloud.DefaultVMClusters(),
		VMBudgetPerHour: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fd.NeedsFuture() {
		t.Error("NeedsFuture not forwarded: static peak needs no horizon after its plan")
	}
	if spans := day.tr.Spans(); len(spans) != 1 || spans[0].Name != "provision.plan" {
		t.Errorf("spans %+v, want one provision.plan", spans)
	}
}

// TestWrappedDayMatchesBareRun runs 2 h scenarios bare and with every
// wrapper in place, on both engines and with a forecasting lookahead
// policy, and requires identical reports, a consistent span tree, and an
// exact bootstrap replay.
func TestWrappedDayMatchesBareRun(t *testing.T) {
	base := simulate.Default(simulate.CloudAssisted, 1).With(cloudmedia.WithHours(2), cloudmedia.WithWorkers(1))
	for name, sc := range map[string]simulate.Scenario{
		"event-greedy": base,
		"fluid-greedy": base.With(cloudmedia.WithFidelity(simulate.FidelityFluid)),
		"event-lookahead": base.With(
			cloudmedia.WithInterval(600),
			cloudmedia.WithPredictor(simulate.EWMA{Alpha: 0.4}),
			cloudmedia.WithPolicy(simulate.Lookahead{SpotHedge: true}),
			cloudmedia.WithPricing(simulate.SpotPricing()),
		),
	} {
		t.Run(name, func(t *testing.T) {
			bare, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			engine := "sim"
			if sc.Fidelity == simulate.FidelityFluid {
				engine = "fluid"
			}
			day := newTracedDay(NewTracer(), engine)
			traced := runDay(day.instrument(sc), day.hooks(sc.SampleSeconds), false)
			if len(traced.problems) > 0 || len(day.problems) > 0 {
				t.Fatalf("traced day problems: %v %v", traced.problems, day.problems)
			}
			if !reflect.DeepEqual(bare, traced.report) {
				t.Fatalf("wrapped report differs:\nbare   %+v\ntraced %+v", bare, traced.report)
			}
			if len(day.records) != bare.Intervals {
				t.Errorf("%d records, want %d", len(day.records), bare.Intervals)
			}
			checkSpanTree(t, day)

			rp, err := newReplayer(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.checkBootstrap(day.records[0]); err != nil {
				t.Fatal(err)
			}
			lookahead := 0
			if sc.Policy != nil {
				lookahead = sc.Policy.Lookahead()
			}
			st, err := rp.replaySizing(day.records, day.forecasts, lookahead)
			if err != nil {
				t.Fatal(err)
			}
			channels := len(day.records[0].ArrivalRates)
			if st.solves < channels*len(day.records) {
				t.Errorf("%d replayed solves, want at least %d", st.solves, channels*len(day.records))
			}
			cl, err := replayCloud(sc, day.records, day.snapshotTimes)
			if err != nil || cl.errors != 0 || cl.submits != len(day.records) {
				t.Errorf("cloud replay: %+v (%v)", cl, err)
			}
		})
	}
}

// checkSpanTree asserts the nesting the hooks promise: set-up and engine
// steps at the top, rounds inside steps, plans inside rounds (or set-up
// for the bootstrap).
func checkSpanTree(t *testing.T, day *tracedDay) {
	t.Helper()
	spans := day.tr.Spans()
	if len(spans) == 0 || spans[0].Name != "setup" {
		t.Fatalf("first span %+v, want setup", spans)
	}
	rounds := 0
	for i, s := range spans {
		parent := "none"
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		want := map[string][]string{
			"setup":          {"none"},
			day.engine:       {"none"},
			"core.round":     {day.engine},
			"provision.plan": {"core.round", "setup"},
		}[s.Name]
		found := false
		for _, w := range want {
			found = found || w == parent
		}
		if !found {
			t.Errorf("span %d %q has parent %q, want one of %v", i, s.Name, parent, want)
		}
		if s.End < s.Start {
			t.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Name == "core.round" {
			rounds++
			if s.Round != rounds {
				t.Errorf("round span %d carries round %d", rounds, s.Round)
			}
		}
	}
	if rounds != len(day.records)-1 {
		t.Errorf("%d round spans for %d records", rounds, len(day.records))
	}
}

func TestBootstrapReplayDetectsMismatch(t *testing.T) {
	sc := simulate.Default(simulate.CloudAssisted, 1).With(cloudmedia.WithHours(1))
	rp, err := newReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	var rec simulate.IntervalRecord
	if _, err := sc.Run(context.Background(), simulate.OnInterval(func(r simulate.IntervalRecord) {
		if r.Time == 0 {
			rec = r
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := rp.checkBootstrap(rec); err != nil {
		t.Fatalf("exact bootstrap rejected: %v", err)
	}
	rec.DemandPerChannel[0] = math.Nextafter(rec.DemandPerChannel[0], math.Inf(1))
	if rp.checkBootstrap(rec) == nil {
		t.Error("perturbed bootstrap demand accepted")
	}
}
