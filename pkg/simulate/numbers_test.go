package simulate_test

import (
	"errors"
	"math"
	"testing"

	"cloudmedia"
	"cloudmedia/pkg/simulate"
)

// TestValidateRejectsNonFiniteNumbers: each of these options used to
// validate and then stall the run, finish it at 0 h or $0, or bill NaN
// dollars. They must fail validation instead.
func TestValidateRejectsNonFiniteNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, opt := range map[string]cloudmedia.Option{
		"hours NaN":           cloudmedia.WithHours(nan),
		"interval NaN":        cloudmedia.WithInterval(nan),
		"sample NaN":          cloudmedia.WithSampleSeconds(nan),
		"scale NaN":           cloudmedia.WithScale(nan),
		"scale +Inf":          cloudmedia.WithScale(inf),
		"viewer scale NaN":    cloudmedia.WithViewerScale(nan),
		"playback rate NaN":   cloudmedia.WithPlaybackRate(nan),
		"chunk seconds NaN":   cloudmedia.WithChunkSeconds(nan),
		"VM bandwidth NaN":    cloudmedia.WithVMBandwidth(nan),
		"entry fraction NaN":  cloudmedia.WithEntryFirstChunk(nan),
		"VM budget NaN":       cloudmedia.WithBudgets(nan, 1),
		"uplink ratio -1":     cloudmedia.WithUplinkRatio(-1),
		"uplink ratio NaN":    cloudmedia.WithUplinkRatio(nan),
		"storage budget +Inf": cloudmedia.WithBudgets(100, inf),
	} {
		sc := simulate.Default(simulate.CloudAssisted, 1).With(cloudmedia.WithHours(3), opt)
		if err := sc.Validate(); !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("%s: Validate = %v, want ErrInvalidScenario", name, err)
		}
	}
}

// FuzzScenarioNumbers feeds arbitrary numbers through the public options.
// Derivation must not panic, and a scenario that validates must hold
// every one of those numbers finite and in range.
func FuzzScenarioNumbers(f *testing.F) {
	f.Add(3.0, 3600.0, 900.0, 100.0, 1.0, 1.2, 1.0, 50e3, 75.0, 1.25e6, 0.7)
	f.Fuzz(func(t *testing.T, hours, interval, sample, vmBudget, storageBudget, uplinkRatio, scale,
		playbackRate, chunkSeconds, vmBandwidth, entry float64) {
		sc := simulate.Default(simulate.CloudAssisted, 1).With(
			cloudmedia.WithHours(hours),
			cloudmedia.WithInterval(interval),
			cloudmedia.WithSampleSeconds(sample),
			cloudmedia.WithBudgets(vmBudget, storageBudget),
			cloudmedia.WithUplinkRatio(uplinkRatio),
			cloudmedia.WithScale(scale),
			cloudmedia.WithPlaybackRate(playbackRate),
			cloudmedia.WithChunkSeconds(chunkSeconds),
			cloudmedia.WithVMBandwidth(vmBandwidth),
			cloudmedia.WithEntryFirstChunk(entry),
		)
		err := sc.Validate()
		if err != nil {
			if !errors.Is(err, simulate.ErrInvalidScenario) {
				t.Fatalf("Validate = %v, want it to wrap ErrInvalidScenario", err)
			}
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		for _, v := range []float64{sc.Hours, sc.IntervalSeconds, sc.SampleSeconds, sc.VMBudget, sc.StorageBudget,
			sc.UplinkRatio, sc.Workload.BaseArrivalRate, sc.Channel.PlaybackRate, sc.Channel.ChunkSeconds,
			sc.Channel.VMBandwidth, sc.Channel.EntryFirstChunk} {
			if !finite(v) {
				t.Fatalf("validated scenario holds non-finite %v: %+v", v, sc)
			}
		}
		ch := sc.Channel
		if sc.Hours <= 0 || sc.IntervalSeconds < 0 || sc.SampleSeconds < 0 || sc.VMBudget < 0 ||
			sc.StorageBudget < 0 || sc.UplinkRatio < 0 || sc.Workload.BaseArrivalRate < 0 ||
			ch.PlaybackRate <= 0 || ch.ChunkSeconds <= 0 || ch.VMBandwidth <= ch.PlaybackRate ||
			ch.EntryFirstChunk < 0 || ch.EntryFirstChunk > 1 {
			t.Fatalf("validated scenario holds an out-of-range number: %+v", sc)
		}
	})
}
