package stack

import (
	"testing"

	"cloudmedia/internal/modes"
)

// TestValidateRejectsNegatives: the controller defaults only the == 0
// spellings of the interval and budgets, so negatives must be rejected
// here or they slip through into the controllers — where a negative
// budget fails every plan round and bills $0.
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
