package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/testutil"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want string // substring of the error, "" = valid
	}{
		{"nil schedule", nil, ""},
		{"empty schedule", &Schedule{}, ""},
		{"good mix", &Schedule{
			Outages:      []RegionOutage{{Start: 10, Duration: 5}},
			Preemptions:  []SpotPreemption{{At: 0, Fraction: 1}},
			Degradations: []CapacityDegradation{{Start: 0, Duration: 1, Factor: 0.5}},
		}, ""},
		{"negative outage start", &Schedule{Outages: []RegionOutage{{Start: -1, Duration: 5}}}, "outage 0"},
		{"zero outage duration", &Schedule{Outages: []RegionOutage{{Start: 1, Duration: 0}}}, "outage 0"},
		{"negative preemption time", &Schedule{Preemptions: []SpotPreemption{{At: -1, Fraction: 0.5}}}, "preemption 0"},
		{"preemption fraction > 1", &Schedule{Preemptions: []SpotPreemption{{At: 1, Fraction: 1.5}}}, "preemption 0"},
		{"degradation factor < 0", &Schedule{Degradations: []CapacityDegradation{{Start: 0, Duration: 1, Factor: -0.1}}}, "degradation 0"},
		{"degradation zero window", &Schedule{Degradations: []CapacityDegradation{{Start: 0, Duration: 0, Factor: 0.5}}}, "degradation 0"},
		{"interruption fraction > 1", &Schedule{InterruptionFraction: 2}, "interruption fraction"},
		{"overlapping outages of one region", &Schedule{Outages: []RegionOutage{
			{Region: "na", Start: 600, Duration: 1200}, {Region: "na", Start: 1200, Duration: 1200},
		}}, "outages 0 and 1 overlap"},
		{"overlapping unscoped outages", &Schedule{Outages: []RegionOutage{
			{Start: 1200, Duration: 1200}, {Start: 600, Duration: 1200},
		}}, "outages 0 and 1 overlap"},
		{"nested outage window", &Schedule{Outages: []RegionOutage{
			{Region: "na", Start: 0, Duration: 3000}, {Region: "eu", Start: 0, Duration: 5}, {Region: "na", Start: 600, Duration: 5},
		}}, "outages 0 and 2 overlap"},
		{"back-to-back outages of one region", &Schedule{Outages: []RegionOutage{
			{Region: "na", Start: 600, Duration: 600}, {Region: "na", Start: 1200, Duration: 600},
		}}, ""},
		{"overlapping outages of two regions", &Schedule{Outages: []RegionOutage{
			{Region: "na", Start: 600, Duration: 1200}, {Region: "eu", Start: 1200, Duration: 1200},
		}}, ""},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestCloneIsDeepAndNilSafe(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Clone() != nil {
		t.Error("nil.Clone() != nil")
	}
	orig := &Schedule{
		Outages:     []RegionOutage{{Region: "na", Start: 10, Duration: 5}},
		Preemptions: []SpotPreemption{{At: 7, Fraction: 0.5}},
		Name:        "x",
	}
	cp := orig.Clone()
	if !reflect.DeepEqual(orig, cp) {
		t.Fatalf("clone differs: %+v vs %+v", orig, cp)
	}
	cp.Outages[0].Start = 99
	cp.Preemptions[0].Fraction = 1
	if orig.Outages[0].Start != 10 || orig.Preemptions[0].Fraction != 0.5 {
		t.Error("mutating the clone reached the original")
	}
}

func TestEmptyAndInterruptionFraction(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() || !(&Schedule{}).Empty() {
		t.Error("nil/zero schedules must be Empty")
	}
	if (&Schedule{Preemptions: []SpotPreemption{{At: 1}}}).Empty() {
		t.Error("schedule with events reported Empty")
	}
	if got := nilSched.interruptionFraction(); got != 0.5 {
		t.Errorf("nil interruptionFraction = %v, want default 0.5", got)
	}
	if got := (&Schedule{InterruptionFraction: 0.25}).interruptionFraction(); got != 0.25 {
		t.Errorf("interruptionFraction = %v, want 0.25", got)
	}
}

func TestTargetScoping(t *testing.T) {
	global := Target{}
	if !global.matches("") {
		t.Error("global event must match every target")
	}
	na := Target{Region: "na"}
	if !na.matches("") || !na.matches("na") || na.matches("eu") {
		t.Error("region scoping wrong")
	}
}

// TestAttachNeedsResolvedInterval: the stack builder resolves the control
// interval before attaching faults, so a Target that arrives with 0 fails
// to schedule the spot-interruption process instead of guessing an hour.
func TestAttachNeedsResolvedInterval(t *testing.T) {
	s, cl := testutil.Stack(t, sim.Config{
		Mode:     sim.ClientServer,
		Channel:  testutil.ChannelConfig(5, 60),
		Workload: testutil.FlatWorkload(2, 0.3, 300),
		Transfer: testutil.SequentialWithJumps(t, 5, 0.9, 0.2),
		Seed:     7,
	}, cloud.WithPricing(cloud.SpotPricing()))
	if err := Attach(Target{Backend: s, Cloud: cl}, nil); err == nil {
		t.Error("zero interval accepted")
	}
	if err := Attach(Target{Backend: s, Cloud: cl, IntervalSeconds: 600}, nil); err != nil {
		t.Errorf("resolved interval rejected: %v", err)
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if !reflect.DeepEqual(names, []string{"degrade-evening", "outage-flash", "preempt-peak"}) {
		t.Fatalf("preset names %v", names)
	}
	for _, name := range names {
		s := Presets()[name]
		if s.Name != name {
			t.Errorf("preset %s carries Name %q", name, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if s.Empty() {
			t.Errorf("preset %s declares no events", name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want *Schedule
	}{
		{"", nil},
		{"none", nil},
		{"outage@19.5h+2h", &Schedule{
			Name:    "outage@19.5h+2h",
			Outages: []RegionOutage{{Start: 19.5 * 3600, Duration: 2 * 3600}},
		}},
		{"preempt@20h:0.6", &Schedule{
			Name:        "preempt@20h:0.6",
			Preemptions: []SpotPreemption{{At: 20 * 3600, Fraction: 0.6}},
		}},
		{"degrade@90m+30m:0.5", &Schedule{
			Name:         "degrade@90m+30m:0.5",
			Degradations: []CapacityDegradation{{Start: 5400, Duration: 1800, Factor: 0.5}},
		}},
		{"na=outage@6h+1h,preempt@300:1", &Schedule{
			Name:        "na=outage@6h+1h,preempt@300:1",
			Outages:     []RegionOutage{{Region: "na", Start: 6 * 3600, Duration: 3600}},
			Preemptions: []SpotPreemption{{At: 300, Fraction: 1}},
		}},
	} {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	// Preset names resolve through ParseSpec too.
	got, err := ParseSpec("preempt-peak")
	if err != nil || got == nil || len(got.Preemptions) != 1 {
		t.Errorf("preset via ParseSpec: %+v, %v", got, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"meteor@1h",                 // unknown kind
		"outage",                    // no @
		"outage@1h",                 // missing duration
		"outage@1h+2h:0.5",          // outage takes no parameter
		"preempt@1h",                // missing fraction
		"preempt@1h:heavy",          // bad fraction
		"preempt@1h:1.5",            // fraction outside [0,1] (Validate)
		"degrade@1h+1h",             // missing factor
		"degrade@soon+1h:.5",        // bad time
		"outage@NaN+2h",             // non-finite start
		"outage@1h+Inf",             // non-finite duration
		"preempt@NaN:0.5",           // non-finite time
		"preempt@1h:NaN",            // NaN fraction
		"degrade@1h+2h:NaN",         // NaN factor
		"outage@1h+2h,outage@2h+2h", // overlapping outages of one region (Validate)
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("%q: want error", spec)
		}
	}
}

func TestParseTime(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"19.5h", 19.5 * 3600}, {"90m", 5400}, {"30s", 30}, {"45", 45},
	} {
		got, err := parseTime(tc.in)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("parseTime(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := parseTime("1d"); err == nil {
		t.Error("parseTime(1d): want error (days unsupported)")
	}
}
