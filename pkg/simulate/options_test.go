package simulate_test

import (
	"errors"
	"reflect"
	"testing"

	"cloudmedia"
	"cloudmedia/pkg/simulate"
)

// FuzzOptionIsFieldWrite holds every option that sets a scenario field to
// that one rule: deriving with the option is the same as assigning the
// field directly. The two scenarios are reflect.DeepEqual, or both fail
// Validate with the same error wrapped in ErrInvalidScenario — an option
// judges nothing itself, so a zero argument means the field's default and
// a bad one fails exactly where the direct write does.
func FuzzOptionIsFieldWrite(f *testing.F) {
	f.Add(2, 24.0, int(simulate.FidelityFluid), int(simulate.ClockSimulated), 0.7, 0.1)
	f.Add(-1, -2.0, 9, 9, 2.0, -0.5)
	f.Fuzz(func(t *testing.T, workers int, timeScale float64, fidelity, clock int, spot, reserved float64) {
		pricing := simulate.PricingPlan{
			Name:         "fuzz",
			SpotFraction: spot, SpotRate: 0.3,
			ReservedFraction: reserved, ReservedRate: 0.45, TermHours: 24,
		}
		for _, tc := range []struct {
			name   string
			opt    cloudmedia.Option
			assign func(*simulate.Scenario)
		}{
			{"workers", cloudmedia.WithWorkers(workers), func(sc *simulate.Scenario) { sc.Workers = workers }},
			{"time scale", cloudmedia.WithTimeScale(timeScale), func(sc *simulate.Scenario) { sc.Serve.TimeScale = timeScale }},
			{"fidelity", cloudmedia.WithFidelity(simulate.Fidelity(fidelity)), func(sc *simulate.Scenario) { sc.Fidelity = simulate.Fidelity(fidelity) }},
			{"clock", cloudmedia.WithClock(simulate.ClockMode(clock)), func(sc *simulate.Scenario) { sc.Serve.Clock = simulate.ClockMode(clock) }},
			{"pricing", cloudmedia.WithPricing(pricing), func(sc *simulate.Scenario) { sc.Pricing = pricing }},
		} {
			got := simulate.Default(simulate.CloudAssisted, 1).With(tc.opt)
			want := simulate.Default(simulate.CloudAssisted, 1)
			tc.assign(&want)
			gotErr, wantErr := got.Validate(), want.Validate()
			if gotErr != nil || wantErr != nil {
				if !errors.Is(gotErr, simulate.ErrInvalidScenario) || !errors.Is(wantErr, simulate.ErrInvalidScenario) ||
					gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: option Validate = %v, direct write Validate = %v; want the same ErrInvalidScenario",
						tc.name, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: option derived %+v, direct write %+v", tc.name, got, want)
			}
		}
	})
}
