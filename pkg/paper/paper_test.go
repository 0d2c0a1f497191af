package paper_test

import (
	"errors"
	"reflect"
	"testing"

	"cloudmedia"
	"cloudmedia/pkg/paper"
	"cloudmedia/pkg/simulate"
)

// short returns a small, quick scenario in the given mode.
func short(mode simulate.Mode, hours float64) simulate.Scenario {
	sc := simulate.Default(mode, 1)
	sc.Hours = hours
	return sc
}

func TestIDs(t *testing.T) {
	ids := paper.IDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	// Presentation order: catalogs first, the mode-sensitive entries
	// (timeline, regional, costfrontier, tracereplay, resilience) last.
	if ids[0] != "tab2" || ids[len(ids)-1] != "resilience" {
		t.Errorf("presentation order lost: %v", ids)
	}
	want := map[string]bool{"tab2": false, "tab3": false, "fig4": false, "fig10": false}
	for _, id := range ids {
		if _, ok := want[id]; ok {
			want[id] = true
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestRunStatic(t *testing.T) {
	res, err := paper.Run("tab2", simulate.Default(simulate.ClientServer, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "tab2" || len(res.Tables) == 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestRunShortFigureAllModes(t *testing.T) {
	for _, mode := range []simulate.Mode{simulate.ClientServer, simulate.P2P, simulate.CloudAssisted} {
		if _, err := paper.Run("fig6", short(mode, 1)); err != nil {
			t.Errorf("fig6 %v: %v", mode, err)
		}
	}
}

func TestModeDoesNotLeakIntoPinnedFigures(t *testing.T) {
	// fig6 is defined over client-server regardless of the scenario's Mode; in
	// particular the p2p mode's static-provisioning override must not leak
	// into it, so the summaries are identical for any requested mode.
	cs, err := paper.Run("fig6", short(simulate.ClientServer, 2))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := paper.Run("fig6", short(simulate.P2P, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs.Summary, pp.Summary) {
		t.Errorf("fig6 summary depends on requested mode:\n client-server: %v\n p2p: %v", cs.Summary, pp.Summary)
	}
}

// TestRunErrors pins the error contract: every invalid scenario — bad
// mode, zero duration, a recorded option error — is rejected with an
// error wrapping simulate.ErrInvalidScenario, and an unknown ID still
// fails.
func TestRunErrors(t *testing.T) {
	valid := simulate.Default(simulate.ClientServer, 2)
	if _, err := paper.Run("fig99", valid); err == nil {
		t.Error("unknown experiment: want error")
	}
	badMode := valid
	badMode.Mode = simulate.Mode(42)
	noHours := valid
	noHours.Hours = 0
	for name, sc := range map[string]simulate.Scenario{
		"invalid mode":    badMode,
		"zero hours":      noHours,
		"recorded option": valid.With(cloudmedia.WithScale(-1)),
	} {
		_, err := paper.Run("tab2", sc)
		if !errors.Is(err, simulate.ErrInvalidScenario) {
			t.Errorf("%s: got %v, want an error wrapping ErrInvalidScenario", name, err)
		}
	}
}
