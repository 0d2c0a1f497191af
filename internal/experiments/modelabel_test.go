package experiments

import (
	"strings"
	"testing"

	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// TestTitlesNameTheModeRun pins the mode labels: the timeline honours the
// public mode as given, and the experiments that always provision
// dynamically (regional, costfrontier, resilience) name the mode they
// actually run — cloud-assisted when p2p was asked for.
func TestTitlesNameTheModeRun(t *testing.T) {
	for _, tc := range []struct {
		mode     modes.Mode
		timeline string
		dynamic  string
	}{
		{modes.ClientServer, "(client-server)", "(client-server)"},
		{modes.P2P, "(p2p)", "(cloud-assisted)"},
		{modes.CloudAssisted, "(cloud-assisted)", "(cloud-assisted)"},
	} {
		sc := stack.DefaultSpec(tc.mode, 1)
		sc.Hours = 1
		for _, e := range []struct {
			id   string
			run  Runner
			want string
		}{
			{"timeline", TimelineReport, tc.timeline},
			{"regional", Regional, tc.dynamic},
			{"costfrontier", CostFrontier, tc.dynamic},
			{"resilience", Resilience, tc.dynamic},
		} {
			res, err := e.run(sc)
			if err != nil {
				t.Fatalf("%v/%s: %v", tc.mode, e.id, err)
			}
			if title := res.Tables[0].Title; !strings.HasSuffix(title, e.want) {
				t.Errorf("%v/%s: title %q does not end in %q", tc.mode, e.id, title, e.want)
			}
		}
	}
}
