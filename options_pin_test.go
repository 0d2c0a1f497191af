package cloudmedia

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// pinTrace returns a small deterministic demand trace; totalRate sets the
// aggregate rate so two traces are distinguishable in a fingerprint.
func pinTrace(t *testing.T, totalRate float64) *trace.Trace {
	t.Helper()
	tr, err := trace.PopularityDrift(3, 24, 3600, 0.8, totalRate, 12)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// optionPinCases applies every root option, the argument checks, the
// zero and nil forms that restore a default, and the order-sensitive
// demand combinations.
func optionPinCases(t *testing.T) []struct {
	name string
	opts []Option
} {
	tr, tr2 := pinTrace(t, 1.5), pinTrace(t, 0.75)
	wl := simulate.DefaultWorkload()
	wl.Channels = 4
	wl.BaseArrivalRate = 0.3
	preempt := simulate.FaultPresets()["preempt-peak"]
	badPricing := simulate.SpotPricing()
	badPricing.SpotFraction = 2
	badFaults := &simulate.FaultSchedule{Preemptions: []simulate.SpotPreemption{{At: -1, Fraction: 0.5}}}
	vm := plan.DefaultVMClusters()[:1]
	nfs := plan.DefaultNFSClusters()[:1]
	small, err := plan.SequentialWithJumps(20, 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	wrongSize, err := plan.SequentialWithJumps(5, 0.8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	o := func(opts ...Option) []Option { return opts }
	return []struct {
		name string
		opts []Option
	}{
		{"none", nil},
		{"chunks", o(WithChunks(10))},
		{"chunks-zero", o(WithChunks(0))},
		{"playback-rate", o(WithPlaybackRate(40e3))},
		{"chunk-seconds", o(WithChunkSeconds(60))},
		{"vm-bandwidth", o(WithVMBandwidth(2e6))},
		{"slots", o(WithSlotsPerVM(2))},
		{"entry-first-chunk", o(WithEntryFirstChunk(0.5))},
		{"entry-first-chunk-bad", o(WithEntryFirstChunk(1.5))},
		{"transfer", o(WithTransfer(small))},
		{"transfer-wrong-size", o(WithTransfer(wrongSize))},
		{"viewing", o(WithViewing(0.8, 0.25))},
		{"transfer+viewing", o(WithTransfer(small), WithViewing(0.8, 0.25))},
		{"viewing+transfer", o(WithViewing(0.8, 0.25), WithTransfer(small))},
		{"arrival-rate", o(WithArrivalRate(0.1, 0.2))},
		{"arrival-rate-empty", o(WithArrivalRate())},
		{"arrival-rate-negative", o(WithArrivalRate(-1))},
		{"peer-uplink", o(WithPeerUplink(30e3))},
		{"peer-uplink-negative", o(WithPeerUplink(-1))},
		{"budgets", o(WithBudgets(50, 2))},
		{"vm-clusters", o(WithVMClusters(vm...))},
		{"vm-clusters-nil", o(WithVMClusters())},
		{"nfs-clusters", o(WithNFSClusters(nfs...))},
		{"nfs-clusters-nil", o(WithNFSClusters())},
		{"hours", o(WithHours(6))},
		{"hours-zero", o(WithHours(0))},
		{"seed", o(WithSeed(7))},
		{"scale", o(WithScale(2))},
		{"scale-zero", o(WithScale(0))},
		{"scale-twice", o(WithScale(2), WithScale(3))},
		{"interval", o(WithInterval(600))},
		{"interval-negative", o(WithInterval(-1))},
		{"sample", o(WithSampleSeconds(300))},
		{"sample-negative", o(WithSampleSeconds(-1))},
		{"uplink-ratio", o(WithUplinkRatio(1.2))},
		{"channels", o(WithChannels(3))},
		{"workers", o(WithWorkers(2))},
		{"workers-negative", o(WithWorkers(-1))},
		{"fidelity", o(WithFidelity(FidelityFluid))},
		{"fidelity-bad", o(WithFidelity(Fidelity(9)))},
		{"viewer-scale", o(WithViewerScale(500))},
		{"viewer-scale-zero", o(WithViewerScale(0))},
		{"predictor", o(WithPredictor(simulate.EWMA{Alpha: 0.4}))},
		{"predictor-nil", o(WithPredictor(nil))},
		{"policy", o(WithPolicy(simulate.Lookahead{K: 2}))},
		{"policy-nil", o(WithPolicy(nil))},
		{"pricing", o(WithPricing(ReservedPricing()))},
		{"pricing-bad", o(WithPricing(badPricing))},
		{"faults", o(WithFaults(preempt))},
		{"faults-nil", o(WithFaults(nil))},
		{"faults-bad", o(WithFaults(badFaults))},
		{"scheduling", o(WithScheduling(simulate.Proportional))},
		{"scheduling-zero", o(WithScheduling(0))},
		{"workload", o(WithWorkload(wl))},
		{"workload-source", o(WithWorkloadSource(tr))},
		{"workload-source-nil", o(WithWorkloadSource(nil))},
		{"trace", o(WithTrace(tr))},
		{"trace-nil", o(WithTrace(nil))},
		{"trace+workload-source", o(WithTrace(tr), WithWorkloadSource(tr2))},
		{"clock", o(WithClock(ClockSimulated))},
		{"clock-bad", o(WithClock(ClockMode(9)))},
		{"time-scale", o(WithTimeScale(24))},
		{"time-scale-zero", o(WithTimeScale(0))},
		{"metrics-addr", o(WithMetricsAddr(":9090"))},
		// Order-sensitive demand combinations.
		{"scale+viewer-scale", o(WithScale(2), WithViewerScale(500))},
		{"viewer-scale+scale", o(WithViewerScale(500), WithScale(2))},
		{"workload+scale", o(WithWorkload(wl), WithScale(2))},
		{"scale+workload", o(WithScale(2), WithWorkload(wl))},
		{"workload+channels", o(WithWorkload(wl), WithChannels(3))},
		{"channels+workload", o(WithChannels(3), WithWorkload(wl))},
		{"trace+scale", o(WithTrace(tr2), WithScale(2))},
		{"scale+trace", o(WithScale(2), WithTrace(tr2))},
		{"trace+viewer-scale", o(WithTrace(tr2), WithViewerScale(500))},
		{"channel-shape", o(WithChunks(12), WithPlaybackRate(40e3), WithChunkSeconds(50), WithVMBandwidth(2e6), WithSlotsPerVM(3), WithEntryFirstChunk(0.6))},
		// The first failing option is the one reported, not a later one,
		// and not a bad field value written before it.
		{"first-error", o(WithHours(3), WithWorkers(-2), WithScale(-1), WithArrivalRate())},
	}
}

// fingerprintSource samples a demand source at fixed instants.
func fingerprintSource(src simulate.Source) string {
	if src == nil {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%T ch=%d", src, src.NumChannels())
	for c := 0; c < src.NumChannels(); c++ {
		r0, err0 := src.Rate(c, 0)
		r1, err1 := src.Rate(c, 5.5*3600)
		mx, err2 := src.MaxRate(c)
		mean, err3 := src.MeanRate(c, 0, 24*3600)
		fmt.Fprintf(&b, " [%v %v %v %v %v]", r0, r1, mx, mean, errors.Join(err0, err1, err2, err3))
	}
	return b.String()
}

// fingerprintScenario renders every exported scenario field at full
// precision, or the validation error.
func fingerprintScenario(sc Scenario) string {
	if err := sc.Validate(); err != nil {
		return fmt.Sprintf("error(is-invalid=%t): %v", errors.Is(err, simulate.ErrInvalidScenario), err)
	}
	w := sc.Workload
	faults := "none"
	if sc.Faults != nil {
		faults = fmt.Sprintf("%+v", *sc.Faults)
	}
	return fmt.Sprintf("mode=%v fidelity=%v channel=%+v workload={ch=%d zipf=%v base=%v level=%v crowds=%+v jump=%v uplink=%+v} "+
		"source={%s} hours=%v interval=%v budgets=%v/%v seed=%d sample=%v uplink-ratio=%v predictor=%T%+v policy=%T%+v "+
		"pricing=%+v faults=%s scheduling=%v workers=%d vm=%+v nfs=%+v serve=%+v",
		sc.Mode, sc.Fidelity, sc.Channel, w.Channels, w.ZipfExponent, w.BaseArrivalRate, w.BaseLevel, w.FlashCrowds,
		w.JumpMeanSeconds, w.PeerUplink, fingerprintSource(sc.Source), sc.Hours, sc.IntervalSeconds, sc.VMBudget,
		sc.StorageBudget, sc.Seed, sc.SampleSeconds, sc.UplinkRatio, sc.Predictor, sc.Predictor, sc.Policy, sc.Policy,
		sc.Pricing, faults, sc.Scheduling, sc.Workers, sc.VMClusters, sc.NFSClusters, sc.Serve)
}

// fingerprintPipeline renders the resolved pipeline inputs, or the error.
func fingerprintPipeline(p *Pipeline, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	transfer := sha256.Sum256([]byte(fmt.Sprintf("%v", p.transfer)))
	return fmt.Sprintf("channel=%+v rates=%v transfer=%d×%x uplink=%v budgets=%v/%v vm=%+v nfs=%+v",
		p.channel, p.rates, len(p.transfer), transfer[:8], p.peerUplink, p.vmBudget, p.storBudget, p.vmClusters, p.nfsClusters)
}

// TestOptionSemanticsPinned pins what every option does to a scenario —
// through NewScenario, through With on a customised parametric base, and
// through With on a trace-driven base — and to a pipeline. Refresh with
// `go test . -run TestOptionSemanticsPinned -update` only when an option's
// meaning changes on purpose.
func TestOptionSemanticsPinned(t *testing.T) {
	base := simulate.Default(simulate.P2P, 2)
	base.Hours = 12
	base.Predictor = simulate.PeakOfWindow{Window: 3}
	base.Policy = simulate.Oracle{}
	base.Scheduling = simulate.Proportional
	base.Faults = simulate.FaultPresets()["degrade-evening"]
	base.VMClusters = plan.DefaultVMClusters()[1:]
	base.NFSClusters = plan.DefaultNFSClusters()[1:]
	base.Fidelity = simulate.FidelityFluid
	base.Serve.Clock = simulate.ClockReal
	traced := simulate.Default(simulate.CloudAssisted, 1)
	traced.Source = pinTrace(t, 3)

	var buf bytes.Buffer
	for _, tc := range optionPinCases(t) {
		sc, err := NewScenario(CloudAssisted, tc.opts...)
		if err != nil {
			fmt.Fprintf(&buf, "new/%s: error(is-invalid=%t): %v\n", tc.name, errors.Is(err, simulate.ErrInvalidScenario), err)
		} else {
			fmt.Fprintf(&buf, "new/%s: %s\n", tc.name, fingerprintScenario(sc))
		}
		fmt.Fprintf(&buf, "with/%s: %s\n", tc.name, fingerprintScenario(base.With(tc.opts...)))
		fmt.Fprintf(&buf, "traced/%s: %s\n", tc.name, fingerprintScenario(traced.With(tc.opts...)))
		p, err := NewPipeline(tc.opts...)
		fmt.Fprintf(&buf, "pipeline/%s: %s\n", tc.name, fingerprintPipeline(p, err))
	}
	// Derivation leaves its parents untouched.
	fmt.Fprintf(&buf, "base-after: %s\n", fingerprintScenario(base))
	fmt.Fprintf(&buf, "traced-after: %s\n", fingerprintScenario(traced))

	golden := filepath.Join("testdata", "options.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("golden has %d lines, got %d", len(wantLines), len(got))
	}
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Errorf("line %d drifted\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}

// TestZeroOptionRestoresDefault: a zero or nil option argument restores
// the field's default, whatever the parent set. A parent that overrides
// faults, predictor, policy, scheduling and both catalogs, derived with
// the zero form of each option, runs exactly like the defaults on both
// engines; and a pipeline given zero budgets and empty catalogs runs
// exactly like one given none.
func TestZeroOptionRestoresDefault(t *testing.T) {
	ctx := context.Background()
	run := func(sc Scenario) *Report {
		t.Helper()
		rep, err := sc.Run(ctx, simulate.KeepHistory())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, fidelity := range []Fidelity{FidelityEvent, FidelityFluid} {
		def := simulate.Default(CloudAssisted, 1)
		def.Hours, def.Fidelity = 2, fidelity
		parent := def.Clone()
		parent.Faults = simulate.FaultPresets()["preempt-peak"]
		parent.Predictor = simulate.EWMA{Alpha: 0.4}
		parent.Policy = simulate.Lookahead{K: 2}
		parent.Scheduling = simulate.Proportional
		parent.VMClusters = plan.DefaultVMClusters()[:1]
		parent.NFSClusters = plan.DefaultNFSClusters()[:1]
		derived := parent.With(WithFaults(nil), WithPredictor(nil), WithPolicy(nil),
			WithScheduling(0), WithVMClusters(), WithNFSClusters())

		want := run(def)
		if reflect.DeepEqual(run(parent), want) {
			t.Fatalf("%v: the parent runs like the defaults, so the test shows nothing", fidelity)
		}
		if got := run(derived); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: the zero options did not restore the defaults:\n got %+v\nwant %+v", fidelity, got, want)
		}
	}

	runPipeline := func(opts ...Option) *Result {
		t.Helper()
		p, err := NewPipeline(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := runPipeline(WithBudgets(0, 0), WithVMClusters(), WithNFSClusters()), runPipeline(); !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline with zero budgets and empty catalogs:\n got %+v\nwant %+v", got, want)
	}
}
