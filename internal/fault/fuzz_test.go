package fault

import (
	"math"
	"testing"
)

// FuzzParseSpec feeds arbitrary strings to the fault grammar. The
// contract: never panic, and either reject the spec or return a schedule
// that validates with every number finite. The seed corpus under
// testdata/fuzz/FuzzParseSpec holds the presets, the grammar examples,
// and the non-finite spellings that used to slip through.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil || s == nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned an invalid schedule: %v", spec, err)
		}
		var nums []float64
		for _, o := range s.Outages {
			nums = append(nums, o.Start, o.Duration)
		}
		for _, p := range s.Preemptions {
			nums = append(nums, p.At, p.Fraction)
		}
		for _, d := range s.Degradations {
			nums = append(nums, d.Start, d.Duration, d.Factor)
		}
		for _, x := range append(nums, s.InterruptionFraction) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("ParseSpec(%q) returned a non-finite number: %+v", spec, s)
			}
		}
	})
}
