// Package fault injects failures into running CloudMedia stacks: region
// outages, spot mass-preemptions, and capacity degradations, declared up
// front in a Schedule and realized through the sim.Backend scheduling
// seam so both engines — per-viewer event and aggregate fluid — see the
// same faults at the same simulated instants.
//
// A stack serves its booted capacity times one factor, the product of
// the degradation and outage windows open at the instant (an outage
// counts as factor 0). Attach is the only writer of that factor, and a
// spot preemption scales only the booted capacity, so overlapping
// windows, preemptions and boot latency compose instead of overwriting
// each other.
//
// Everything is deterministic per seed. Scheduled events fire at their
// declared times; the stochastic spot-interruption process draws from a
// rand stream seeded from the run seed and advances only at control-plane
// cadence, never from wall-clock or goroutine timing, so a fault run is
// bit-identical across worker counts and reproducible across runs — the
// property the resilience experiments and their invariance tests pin.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/sim"
)

// RegionOutage takes one region dark for a window: its serving capacity
// drops to zero (a capacity window of factor 0, see Attach), and in a geo
// deployment its arrivals migrate to the surviving regions. In a
// single-region deployment, where there is nowhere to fail over to,
// viewers keep arriving and stall — the no-failover baseline.
type RegionOutage struct {
	// Region names the geo region that fails; "" means the deployment's
	// largest-share region (geo) or the only region (single-region runs).
	Region string
	// Start and Duration bound the outage window, in simulated seconds.
	Start, Duration float64
}

// SpotPreemption is one provider-side mass-preemption event: at time At,
// the given fraction of every cluster's spot instances is killed.
type SpotPreemption struct {
	// Region restricts the event to one geo region; "" hits every region
	// (a global spot-market event) and is the only sensible value for
	// single-region runs.
	Region string
	// At is the event time in simulated seconds.
	At float64
	// Fraction of the spot instances preempted, in [0,1].
	Fraction float64
}

// CapacityDegradation scales a stack's serving capacity by Factor over a
// window — a brownout: the VMs stay rented and billed, but deliver only
// part of their bandwidth (degraded network, noisy neighbours, partial
// AZ failure).
type CapacityDegradation struct {
	// Region restricts the event to one geo region; "" hits every region.
	Region string
	// Start and Duration bound the degradation window, in seconds.
	Start, Duration float64
	// Factor is the surviving capacity multiplier in [0,1].
	Factor float64
}

// Schedule is a declarative fault plan for one run. The zero value (and
// nil) injects nothing; the spot-interruption process still runs whenever
// the pricing plan prices one (SpotFraction and SpotInterruption both
// positive), because interruption risk is a property of the market the
// plan opted into, not of the fault schedule.
type Schedule struct {
	Outages      []RegionOutage
	Preemptions  []SpotPreemption
	Degradations []CapacityDegradation
	// InterruptionFraction is the fraction of spot instances each
	// stochastic interruption event preempts; 0 means 0.5.
	InterruptionFraction float64
	// Name labels the schedule in CLI/CSV output ("" for ad-hoc ones).
	Name string
}

// Validate checks schedule invariants: times finite and non-negative,
// durations finite and positive, fractions and factors in [0,1], and no
// two outages of one Region overlapping (geo's share migration marks a
// region down at each outage start and up at each end, so the first end
// would bring it back inside the second outage). NaN fails every check,
// so a malformed number cannot drop an event.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, o := range s.Outages {
		if !validTime(o.Start) || !validDuration(o.Duration) {
			return fmt.Errorf("fault: outage %d: window [%v, %v+%v) not positive and finite", i, o.Start, o.Start, o.Duration)
		}
		for j, p := range s.Outages[:i] {
			if p.Region == o.Region && p.Start < o.Start+o.Duration && o.Start < p.Start+p.Duration {
				return fmt.Errorf("fault: outages %d and %d overlap in region %q", j, i, o.Region)
			}
		}
	}
	for i, p := range s.Preemptions {
		if !validTime(p.At) {
			return fmt.Errorf("fault: preemption %d: time %v not finite and non-negative", i, p.At)
		}
		if !unitInterval(p.Fraction) {
			return fmt.Errorf("fault: preemption %d: fraction %v outside [0,1]", i, p.Fraction)
		}
	}
	for i, d := range s.Degradations {
		if !validTime(d.Start) || !validDuration(d.Duration) {
			return fmt.Errorf("fault: degradation %d: window [%v, %v+%v) not positive and finite", i, d.Start, d.Start, d.Duration)
		}
		if !unitInterval(d.Factor) {
			return fmt.Errorf("fault: degradation %d: factor %v outside [0,1]", i, d.Factor)
		}
	}
	if !unitInterval(s.InterruptionFraction) {
		return fmt.Errorf("fault: interruption fraction %v outside [0,1]", s.InterruptionFraction)
	}
	return nil
}

// validTime reports whether t is a finite, non-negative instant.
func validTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

// validDuration reports whether d is a finite, positive span.
func validDuration(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// unitInterval reports whether x lies in [0,1]; NaN does not.
func unitInterval(x float64) bool { return x >= 0 && x <= 1 }

// Clone returns a deep copy (nil stays nil).
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return nil
	}
	out := *s
	out.Outages = append([]RegionOutage(nil), s.Outages...)
	out.Preemptions = append([]SpotPreemption(nil), s.Preemptions...)
	out.Degradations = append([]CapacityDegradation(nil), s.Degradations...)
	return &out
}

// Empty reports whether the schedule declares no events (the stochastic
// interruption process may still run, driven by the pricing plan).
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Outages) == 0 && len(s.Preemptions) == 0 && len(s.Degradations) == 0)
}

// interruptionFraction returns the per-event preemption fraction of the
// stochastic process, defaulting to 0.5.
func (s *Schedule) interruptionFraction() float64 {
	if s == nil || s.InterruptionFraction == 0 {
		return 0.5
	}
	return s.InterruptionFraction
}

// Target is the slice of one running stack the fault plan manipulates:
// the backend for scheduling, the cloud for spot inventory and billing,
// and the controller for the serving-plane capacity hooks.
type Target struct {
	Backend    sim.Backend
	Cloud      *cloud.Cloud
	Controller *core.Controller
	// Region is the stack's geo region name; "" for single-region runs.
	// Events carrying a region apply only when it matches.
	Region string
	// IntervalSeconds is the control period (the interruption process
	// cadence), already resolved by the stack builder.
	IntervalSeconds float64
	// Seed drives the stochastic interruption process. Derive it from
	// the run seed (geo offsets it per region) so reruns reproduce.
	Seed int64
}

// matches reports whether an event scoped to region `r` applies to the
// target ("" is global).
func (t Target) matches(r string) bool { return r == "" || r == t.Region }

// preempt realizes one spot preemption on the target: kill the billed
// spot VMs, then scale the booted capacity by the survivor fraction. The
// next provisioning round re-rents replacements through the normal
// boot-latency path.
func (t Target) preempt(now, fraction float64) {
	killed, lost, err := t.Cloud.PreemptSpot(now, fraction)
	if err != nil || killed == 0 {
		return
	}
	//cloudmedia:allow noloss -- 1-lost is in [0,1] by PreemptSpot's contract
	_ = t.Controller.ScaleCapacity(now, 1-lost)
}

// Attach schedules the plan's preemptions, its capacity windows and the
// pricing plan's stochastic interruption process on the target. The
// capacity windows are the target's degradations and its region outages,
// each outage a window of factor 0: a single-region run has nowhere to
// fail over to, so its viewers keep arriving and stall, and a geo region
// goes dark while internal/geo migrates its arrivals. Attach is the one
// writer of the controller's capacity factor: at each distinct window
// edge it sets the product of the windows open from that edge on, taken
// in declaration order, degradations first. sched may be nil
// (interruption process only).
func Attach(t Target, sched *Schedule) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	if sched != nil {
		for _, p := range sched.Preemptions {
			if !t.matches(p.Region) {
				continue
			}
			f := p.Fraction
			if err := t.Backend.ScheduleAt(p.At, func(now float64) { t.preempt(now, f) }); err != nil {
				return fmt.Errorf("fault: preemption at %v: %w", p.At, err)
			}
		}
		if err := t.attachWindows(sched); err != nil {
			return err
		}
	}
	return attachInterruptions(t, sched)
}

// window is one span [start, end) over which capacity is multiplied by
// factor.
type window struct{ start, end, factor float64 }

// attachWindows schedules one SetCapacityFactor call per distinct edge of
// the target's capacity windows, with the product of the windows open
// from that edge on.
func (t Target) attachWindows(sched *Schedule) error {
	var windows []window
	var edges []float64
	for _, d := range sched.Degradations {
		if t.matches(d.Region) {
			windows = append(windows, window{d.Start, d.Start + d.Duration, d.Factor})
		}
	}
	for _, o := range sched.Outages {
		if t.matches(o.Region) {
			windows = append(windows, window{o.Start, o.Start + o.Duration, 0})
		}
	}
	for _, w := range windows {
		edges = append(edges, w.start, w.end)
	}
	slices.Sort(edges)
	for _, at := range slices.Compact(edges) {
		factor := 1.0
		for _, w := range windows {
			if w.start <= at && at < w.end {
				factor *= w.factor
			}
		}
		if err := t.Backend.ScheduleAt(at, func(now float64) {
			//cloudmedia:allow noloss -- a product of validated factors lies in [0,1]
			_ = t.Controller.SetCapacityFactor(now, factor)
		}); err != nil {
			return fmt.Errorf("fault: capacity window edge at %v: %w", at, err)
		}
	}
	return nil
}

// attachInterruptions runs the spot market's stochastic interruption
// process when the target's pricing plan prices one: every control
// interval, offset half an interval from the provisioning barrier so the
// two never collide on one timestamp, a seeded Bernoulli draw decides
// whether the provider mass-preempts. The rand stream advances once per
// check regardless of outcome or worker count.
func attachInterruptions(t Target, sched *Schedule) error {
	plan := t.Cloud.Pricing()
	if plan.SpotFraction <= 0 || plan.SpotInterruption <= 0 {
		return nil
	}
	interval := t.IntervalSeconds
	pInt := plan.SpotInterruption * interval / 3600
	if pInt > 1 {
		pInt = 1
	}
	fraction := sched.interruptionFraction()
	rng := rand.New(rand.NewSource(t.Seed ^ 0x5f0770c4))
	return t.Backend.ScheduleRepeating(interval/2, interval, func(now float64) {
		if rng.Float64() < pInt {
			t.preempt(now, fraction)
		}
	})
}

// Presets returns the named fault scenarios the CLI and sweep axes
// accept. Times are aligned to the default diurnal workload (flash crowds
// peaking at hours 12 and 20): the outage and the mass preemption both
// land inside the evening flash crowd, the worst case for failover.
func Presets() map[string]*Schedule {
	return map[string]*Schedule{
		"outage-flash": {
			Name:    "outage-flash",
			Outages: []RegionOutage{{Start: 19.5 * 3600, Duration: 2 * 3600}},
		},
		"preempt-peak": {
			Name:        "preempt-peak",
			Preemptions: []SpotPreemption{{At: 20 * 3600, Fraction: 0.6}},
		},
		"degrade-evening": {
			Name:         "degrade-evening",
			Degradations: []CapacityDegradation{{Start: 18 * 3600, Duration: 3 * 3600, Factor: 0.5}},
		},
	}
}

// PresetNames lists the Presets spellings, sorted, for CLI help.
func PresetNames() []string {
	m := Presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseSpec converts a command-line fault spec into a Schedule: either a
// preset name (see PresetNames) or comma-separated events —
//
//	outage@19.5h+2h            region outage (start + duration)
//	preempt@20h:0.6            spot mass-preemption (time, fraction)
//	degrade@18h+3h:0.5         capacity degradation (window, factor)
//
// Times accept h/m/s suffixes (plain numbers are seconds). An event may
// be scoped to a geo region with a name= prefix, e.g. "na=outage@6h+1h".
func ParseSpec(spec string) (*Schedule, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	if p, ok := Presets()[spec]; ok {
		return p, nil
	}
	s := &Schedule{Name: spec}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		region := ""
		if eq := strings.Index(part, "="); eq >= 0 {
			region, part = part[:eq], part[eq+1:]
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: bad event %q (want kind@time…)", part)
		}
		switch kind {
		case "outage", "degrade":
			window, param, _ := strings.Cut(rest, ":")
			startStr, durStr, ok := strings.Cut(window, "+")
			if !ok {
				return nil, fmt.Errorf("fault: %s event %q needs start+duration", kind, part)
			}
			start, err := parseTime(startStr)
			if err != nil {
				return nil, fmt.Errorf("fault: event %q: %w", part, err)
			}
			dur, err := parseTime(durStr)
			if err != nil {
				return nil, fmt.Errorf("fault: event %q: %w", part, err)
			}
			if kind == "outage" {
				if param != "" {
					return nil, fmt.Errorf("fault: outage event %q takes no parameter", part)
				}
				s.Outages = append(s.Outages, RegionOutage{Region: region, Start: start, Duration: dur})
			} else {
				factor, err := parseFrac(param)
				if err != nil {
					return nil, fmt.Errorf("fault: event %q: %w", part, err)
				}
				s.Degradations = append(s.Degradations, CapacityDegradation{Region: region, Start: start, Duration: dur, Factor: factor})
			}
		case "preempt":
			atStr, param, _ := strings.Cut(rest, ":")
			at, err := parseTime(atStr)
			if err != nil {
				return nil, fmt.Errorf("fault: event %q: %w", part, err)
			}
			frac, err := parseFrac(param)
			if err != nil {
				return nil, fmt.Errorf("fault: event %q: %w", part, err)
			}
			s.Preemptions = append(s.Preemptions, SpotPreemption{Region: region, At: at, Fraction: frac})
		default:
			return nil, fmt.Errorf("fault: unknown event kind %q (want outage, preempt, or degrade)", kind)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseTime parses "19.5h", "90m", "30s", or plain seconds.
func parseTime(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "h"):
		mult, s = 3600, strings.TrimSuffix(s, "h")
	case strings.HasSuffix(s, "m"):
		mult, s = 60, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "s"):
		s = strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return v * mult, nil
}

// parseFrac parses a fraction/factor parameter in [0,1].
func parseFrac(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing fraction")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad fraction %q", s)
	}
	return v, nil
}
