package simulate_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"cloudmedia"
	"cloudmedia/pkg/plan"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

func TestWithDerivesIndependentScenario(t *testing.T) {
	parent, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted,
		cloudmedia.WithHours(2),
		cloudmedia.WithVMClusters(plan.DefaultVMClusters()...),
	)
	if err != nil {
		t.Fatal(err)
	}
	wantCrowds := len(parent.Workload.FlashCrowds)
	wantRate := parent.Workload.BaseArrivalRate
	wantBudget := parent.VMBudget
	wantCluster := parent.VMClusters[0]

	child := parent.With(
		cloudmedia.WithBudgets(37, 2),
		cloudmedia.WithSeed(7),
		cloudmedia.WithScale(2),
	)
	if child.VMBudget != 37 || child.StorageBudget != 2 || child.Seed != 7 {
		t.Errorf("child = budget %v/%v seed %d, want 37/2/7", child.VMBudget, child.StorageBudget, child.Seed)
	}
	if child.Workload.BaseArrivalRate != 2*wantRate {
		t.Errorf("child rate = %v, want %v (relative scale)", child.Workload.BaseArrivalRate, 2*wantRate)
	}

	// Mutate every reference field of the child; the parent must not move.
	child.Workload.FlashCrowds = append(child.Workload.FlashCrowds,
		simulate.FlashCrowd{PeakHour: 3, WidthHours: 1, Amplitude: 9})
	child.Workload.FlashCrowds[0].Amplitude = 99
	child.VMClusters[0].PricePerHour = 1e9
	child.Mode = simulate.P2P
	child.Hours = 1e6

	if len(parent.Workload.FlashCrowds) != wantCrowds {
		t.Errorf("parent flash crowds grew to %d", len(parent.Workload.FlashCrowds))
	}
	if parent.Workload.FlashCrowds[0].Amplitude == 99 {
		t.Error("child crowd mutation reached the parent")
	}
	if parent.VMClusters[0] != wantCluster {
		t.Error("child catalog mutation reached the parent")
	}
	if parent.VMBudget != wantBudget || parent.Mode != cloudmedia.CloudAssisted || parent.Hours != 2 {
		t.Errorf("parent scalars mutated: %+v", parent)
	}
}

// TestWithConcurrentRuns runs a parent and two derived children at the
// same time; under -race this proves derivation shares no mutable state.
func TestWithConcurrentRuns(t *testing.T) {
	parent, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted, cloudmedia.WithHours(1))
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []simulate.Scenario{
		parent,
		parent.With(cloudmedia.WithBudgets(50, 1), cloudmedia.WithSeed(7)),
		parent.With(cloudmedia.WithUplinkRatio(1.2), cloudmedia.WithChannels(4)),
	}
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func(i int, sc simulate.Scenario) {
			defer wg.Done()
			rep, err := sc.Run(context.Background())
			if err != nil {
				t.Errorf("scenario %d: %v", i, err)
				return
			}
			if rep.Hours != 1 {
				t.Errorf("scenario %d: hours = %v", i, rep.Hours)
			}
		}(i, sc)
	}
	wg.Wait()
}

func TestWithChainsAndValidates(t *testing.T) {
	base, err := cloudmedia.NewScenario(cloudmedia.ClientServer, cloudmedia.WithHours(4))
	if err != nil {
		t.Fatal(err)
	}
	derived := base.With(cloudmedia.WithInterval(1800)).With(cloudmedia.WithSampleSeconds(600))
	if derived.IntervalSeconds != 1800 || derived.SampleSeconds != 600 || derived.Hours != 4 {
		t.Errorf("chained derivation lost fields: %+v", derived)
	}
	if err := derived.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithOptionConflictSurfacesOnValidate(t *testing.T) {
	base, err := cloudmedia.NewScenario(cloudmedia.ClientServer)
	if err != nil {
		t.Fatal(err)
	}
	bad := base.With(cloudmedia.WithArrivalRate()) // empty: option error
	err = bad.Validate()
	if err == nil {
		t.Fatal("conflicting options passed Validate")
	}
	if !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("err = %v, want errors.Is ErrInvalidScenario", err)
	}
	if _, err := bad.Run(context.Background()); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("Run err = %v, want errors.Is ErrInvalidScenario", err)
	}
}

func TestWithRejectsNonPositiveScale(t *testing.T) {
	// The seed API clamped scale <= 0 to 1; the option now fails loudly
	// instead of silently producing a zero- or negative-arrival workload.
	for _, scale := range []float64{0, -3} {
		if _, err := cloudmedia.NewScenario(cloudmedia.ClientServer, cloudmedia.WithScale(scale)); err == nil {
			t.Errorf("NewScenario accepted scale %v", scale)
		}
		base, err := cloudmedia.NewScenario(cloudmedia.ClientServer)
		if err != nil {
			t.Fatal(err)
		}
		bad := base.With(cloudmedia.WithScale(scale))
		if err := bad.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("With(WithScale(%v)).Validate() = %v, want ErrInvalidScenario", scale, err)
		}
	}
}

func TestValidateCoversWorkloadAndChannel(t *testing.T) {
	sc := simulate.Default(simulate.ClientServer, 1)
	sc.Workload.BaseArrivalRate = -1
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("negative arrival rate: Validate() = %v, want ErrInvalidScenario", err)
	}
	sc = simulate.Default(simulate.ClientServer, 1)
	sc.Channel.Chunks = 0
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("zero chunks: Validate() = %v, want ErrInvalidScenario", err)
	}
}

func TestValidateReturnsTypedError(t *testing.T) {
	cases := map[string]simulate.Scenario{}
	sc := simulate.Default(simulate.ClientServer, 1)
	sc.Hours = 0
	cases["zero hours"] = sc
	sc = simulate.Default(simulate.ClientServer, 1)
	sc.IntervalSeconds = -1
	cases["negative interval"] = sc
	sc = simulate.Default(simulate.ClientServer, 1)
	sc.SampleSeconds = -1
	cases["negative sample"] = sc
	cases["invalid mode"] = simulate.Default(simulate.Mode(42), 1)

	for name, sc := range cases {
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("%s: err %v not errors.Is ErrInvalidScenario", name, err)
		}
	}
}

func TestModeStringInvalidValues(t *testing.T) {
	for _, m := range []simulate.Mode{0, -1, 42} {
		s := m.String()
		if s == "" {
			t.Errorf("Mode(%d).String() empty", int(m))
		}
		switch s {
		case "client-server", "p2p", "cloud-assisted":
			t.Errorf("Mode(%d).String() = %q collides with a valid mode", int(m), s)
		}
	}
}

func TestCloneDeepCopies(t *testing.T) {
	orig := simulate.Default(simulate.P2P, 1)
	orig.VMClusters = plan.DefaultVMClusters()
	cp := orig.Clone()
	cp.Workload.FlashCrowds[0].PeakHour = 23
	cp.VMClusters[0].MaxVMs = 1
	if orig.Workload.FlashCrowds[0].PeakHour == 23 {
		t.Error("clone shares flash crowds")
	}
	if orig.VMClusters[0].MaxVMs == 1 {
		t.Error("clone shares VM catalog")
	}
}

func TestWithFidelityAndViewerScale(t *testing.T) {
	base := simulate.Default(simulate.CloudAssisted, 1)
	derived := base.With(
		cloudmedia.WithFidelity(simulate.FidelityFluid),
		cloudmedia.WithViewerScale(1_000_000),
	)
	if derived.Fidelity != simulate.FidelityFluid {
		t.Errorf("fidelity = %v, want fluid", derived.Fidelity)
	}
	if base.Fidelity != 0 {
		t.Errorf("base fidelity mutated to %v", base.Fidelity)
	}
	want := simulate.BaseRateForViewers(1_000_000)
	if got := derived.Workload.BaseArrivalRate; got != want {
		t.Errorf("base rate = %v, want %v", got, want)
	}
	if err := derived.Validate(); err != nil {
		t.Errorf("derived scenario invalid: %v", err)
	}
	// ViewerScale is absolute: it wins over a relative scale in the same
	// derivation.
	both := base.With(cloudmedia.WithScale(3), cloudmedia.WithViewerScale(500))
	if got := both.Workload.BaseArrivalRate; got != simulate.BaseRateForViewers(500) {
		t.Errorf("scale+viewerScale base rate = %v, want absolute %v", got, simulate.BaseRateForViewers(500))
	}
}

func TestWithFidelityRejectsInvalid(t *testing.T) {
	sc := simulate.Default(simulate.ClientServer, 1).With(cloudmedia.WithFidelity(99))
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("invalid fidelity: err = %v, want ErrInvalidScenario", err)
	}
	sc = simulate.Default(simulate.ClientServer, 1).With(cloudmedia.WithViewerScale(-5))
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("negative viewer scale: err = %v, want ErrInvalidScenario", err)
	}
	direct := simulate.Default(simulate.ClientServer, 1)
	direct.Fidelity = 99
	if err := direct.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("direct invalid fidelity: err = %v, want ErrInvalidScenario", err)
	}
}

func TestParseFidelity(t *testing.T) {
	for spell, want := range map[string]simulate.Fidelity{
		"event": simulate.FidelityEvent, "discrete": simulate.FidelityEvent,
		"fluid": simulate.FidelityFluid, "cohort": simulate.FidelityFluid,
	} {
		got, err := simulate.ParseFidelity(spell)
		if err != nil || got != want {
			t.Errorf("ParseFidelity(%q) = %v, %v", spell, got, err)
		}
	}
	if _, err := simulate.ParseFidelity("magic"); err == nil {
		t.Error("ParseFidelity accepted junk")
	}
	if simulate.FidelityFluid.String() != "fluid" || simulate.FidelityEvent.String() != "event" {
		t.Error("fidelity spellings drifted")
	}
}

func TestWithPolicyAndPricing(t *testing.T) {
	base := simulate.Default(simulate.CloudAssisted, 1)
	derived := base.With(
		cloudmedia.WithPolicy(simulate.Lookahead{K: 4, Hysteresis: 3}),
		cloudmedia.WithPricing(simulate.ReservedPricing()),
	)
	if derived.Policy == nil || derived.Policy.Name() != "lookahead" {
		t.Errorf("policy = %v, want lookahead", derived.Policy)
	}
	if la, ok := derived.Policy.(simulate.Lookahead); !ok || la.K != 4 || la.Hysteresis != 3 {
		t.Errorf("policy parameters lost: %+v", derived.Policy)
	}
	if derived.Pricing.DisplayName() != "reserved" {
		t.Errorf("pricing = %q, want reserved", derived.Pricing.DisplayName())
	}
	// The base is untouched: nil policy (greedy) and on-demand pricing.
	if base.Policy != nil || base.Pricing.Name != "" {
		t.Errorf("base mutated: policy %v, pricing %q", base.Policy, base.Pricing.Name)
	}
	if err := derived.Validate(); err != nil {
		t.Errorf("derived scenario invalid: %v", err)
	}
}

// A nil policy is not invalid: it restores the default, Greedy (see
// TestZeroOptionRestoresDefault in the root package).
func TestWithPolicyAndPricingRejectInvalid(t *testing.T) {
	bad := simulate.PricingPlan{ReservedFraction: 2, TermHours: 24}
	sc := simulate.Default(simulate.ClientServer, 1).With(cloudmedia.WithPricing(bad))
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("bad pricing: err = %v, want ErrInvalidScenario", err)
	}
	// Invalid policy parameters surface on Validate, not at option time.
	sc = simulate.Default(simulate.ClientServer, 1).With(cloudmedia.WithPolicy(simulate.Lookahead{K: -2}))
	if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("negative lookahead: err = %v, want ErrInvalidScenario", err)
	}
}

// TestDeriveClonesDemandSource pins Source handling in With/Clone: the
// derived scenario owns an independent copy of the trace, and a source
// installed through options survives derivation.
func TestDeriveClonesDemandSource(t *testing.T) {
	tr := &trace.Trace{
		Times: []float64{0, 3600},
		Rates: [][]float64{{0.3, 0.5}, {0.1, 0.1}},
	}
	base := simulate.Default(simulate.ClientServer, 1)
	base.Source = tr

	derived := base.With(cloudmedia.WithHours(2))
	if derived.Source == nil {
		t.Fatal("derivation dropped the demand source")
	}
	cl := base.Clone()
	tr.Rates[0][0] = 42 // scribble on the original
	for name, sc := range map[string]simulate.Scenario{"with": derived, "clone": cl} {
		r, err := sc.Source.Rate(0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r == 42 {
			t.Errorf("%s: derived scenario shares the caller's trace", name)
		}
	}

	if err := derived.Validate(); err != nil {
		t.Fatalf("trace-driven scenario invalid: %v", err)
	}
	bad := base
	bad.Source = &trace.Trace{Times: []float64{0}, Rates: [][]float64{{-1}}}
	if err := bad.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("invalid source: err = %v, want ErrInvalidScenario", err)
	}
}

// TestScaleAppliesToDemandSource pins the review fix: WithScale on a
// trace-driven scenario multiplies the source's intensity (it used to
// rescale the unused parametric base rate — a silent no-op), and the
// absolute WithViewerScale is a recorded conflict instead.
func TestScaleAppliesToDemandSource(t *testing.T) {
	tr := &trace.Trace{Times: []float64{0, 3600}, Rates: [][]float64{{0.2, 0.4}}}
	base := simulate.Default(simulate.ClientServer, 1)
	base.Source = tr

	doubled := base.With(cloudmedia.WithScale(2))
	if err := doubled.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := doubled.Source.Rate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.4 {
		t.Errorf("scaled trace rate = %v, want 0.4 (2 × 0.2)", r)
	}
	m, err := doubled.Source.MaxRate(0)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0.8 {
		t.Errorf("scaled envelope = %v, want 0.8", m)
	}

	if err := base.With(cloudmedia.WithViewerScale(1000)).Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("WithViewerScale on a trace: err = %v, want ErrInvalidScenario", err)
	}
}

// TestValidateRejectsNegativeBudgets: a negative VM or storage budget
// used to validate, after which every plan round failed and the run
// billed $0. Validate must reject it up front.
func TestValidateRejectsNegativeBudgets(t *testing.T) {
	for _, b := range [][2]float64{{-5, -1}, {-5, 1}, {100, -1}} {
		sc := simulate.Default(simulate.CloudAssisted, 1).With(
			cloudmedia.WithBudgets(b[0], b[1]), cloudmedia.WithHours(3))
		if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("budgets %v: Validate = %v, want ErrInvalidScenario", b, err)
		}
	}
}

// Options apply in argument order into one Settings: writes before a
// failing option are kept, and the first failure is the one reported.
func TestWithKeepsWritesAndReportsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	opts := []simulate.Option{
		func(s *simulate.Settings) error { s.Scenario.Channel.Chunks = 8; return nil },
		func(*simulate.Settings) error { return first },
		func(*simulate.Settings) error { return second },
	}
	sc := simulate.Default(simulate.CloudAssisted, 1).With(opts...)
	if sc.Channel.Chunks != 8 {
		t.Errorf("chunks = %d, want the write made before the failure (8)", sc.Channel.Chunks)
	}
	err := sc.Validate()
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Errorf("Validate = %v, want the first recorded failure only", err)
	}
	if !errors.Is(err, simulate.ErrInvalidScenario) {
		t.Errorf("Validate = %v, want ErrInvalidScenario", err)
	}
	if _, err := cloudmedia.NewPipeline(opts...); err != first {
		t.Errorf("NewPipeline = %v, want the first recorded failure", err)
	}
}

// The channel-shape options write their own Scenario.Channel field and
// leave the rest of the parent's channel as it was.
func TestChannelOptionsWriteOnlyTheirField(t *testing.T) {
	base := simulate.Default(simulate.CloudAssisted, 1)
	base.Channel.Chunks, base.Channel.PlaybackRate = 8, 50e3
	base.Channel.ChunkSeconds, base.Channel.VMBandwidth = 75, 1.25e6
	got := base.With(cloudmedia.WithChunks(16), cloudmedia.WithPlaybackRate(25e3)).Channel
	if got.Chunks != 16 || got.PlaybackRate != 25e3 {
		t.Errorf("channel = %+v, want chunks 16 and playback rate 25e3", got)
	}
	if got.ChunkSeconds != 75 || got.VMBandwidth != 1.25e6 {
		t.Errorf("untouched fields changed: %+v", got)
	}
	if base.Channel.Chunks != 8 || base.Channel.PlaybackRate != 50e3 {
		t.Errorf("parent channel moved: %+v", base.Channel)
	}
}

// An invalid predictor is a scenario error: Validate rejects it up front
// instead of letting Run fail inside the controller.
func TestValidateRejectsInvalidPredictor(t *testing.T) {
	for name, p := range map[string]simulate.Predictor{
		"EWMA alpha 2":     simulate.EWMA{Alpha: 2},
		"EWMA alpha NaN":   simulate.EWMA{Alpha: math.NaN()},
		"EWMA alpha +Inf":  simulate.EWMA{Alpha: math.Inf(1)},
		"diurnal period 0": simulate.DiurnalMemory{Period: 0},
	} {
		sc := simulate.Default(simulate.CloudAssisted, 1).With(cloudmedia.WithPredictor(p))
		if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidScenario", name, err)
		}
	}
}
