// Package geo implements the extension the paper lists as ongoing work
// ("expanding to cloud systems spanning different geographic locations"):
// a multi-region CloudMedia deployment in which each region runs its own
// user population, cloud infrastructure and ledger, and provisioning
// controller, while the provider reads one aggregate bill and quality
// report.
//
// Regions are independent failure and billing domains: arrivals are split
// by configured population shares, and each region is the single-region
// stack internal/stack builds — its own engine, cloud, broker, and Sec.
// V-B controller — derived from one shared scenario. Nothing in the
// analysis changes, which is exactly the paper's implied claim.
//
// The scenario's fault schedule makes the failure domains real: a region
// outage migrates the failed region's arrival share to the surviving
// regions (re-normalized by their own shares) through a share schedule
// of the declared windows, and charges each receiving region the
// migrated viewers' transfer bytes; recovery restores the shares and
// charges the fail-back transfer. Serving capacity is each region's own:
// its stack zeroes it over the region's outages and scales it by its
// preemptions and degradations through internal/fault. Outage
// boundaries are stops of the one run loop (stack.Run), so runs stay
// bit-identical for every worker count and deterministic per seed.
package geo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/mathx"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/workload"
)

// ErrConfig wraps every deployment-configuration rejection, so callers
// can errors.Is their way past the message text.
var ErrConfig = errors.New("geo: invalid config")

// transferUSDPerGB prices the inter-region viewer-migration bytes charged
// on failover and fail-back.
const transferUSDPerGB = 0.05

// Region describes one geographic location.
type Region struct {
	Name string
	// Share is the fraction of global arrivals homed to this region.
	// Shares must be positive and sum to 1 (within tolerance).
	Share float64
	// UplinkScale rescales the region's peer upload distribution relative
	// to the global workload (broadband-rich regions above 1, mobile-heavy
	// ones below). 0 means 1. This is the regional heterogeneity that
	// feeds workload.Params.PeerUplink per deployment region.
	UplinkScale float64
}

// DefaultRegions returns a three-region split used by the "regional"
// experiment preset: half the crowd in a broadband-rich region, the rest
// across regions with progressively weaker uplinks, so the per-region
// cloud compensation differs visibly for the same budget.
func DefaultRegions() []Region {
	return []Region{
		{Name: "na", Share: 0.5, UplinkScale: 1.2},
		{Name: "eu", Share: 0.3, UplinkScale: 1.0},
		{Name: "apac", Share: 0.2, UplinkScale: 0.7},
	}
}

// regionWorkload derives a region's workload from the global trace: the
// arrival rate is the global rate times the region's share, and the peer
// uplink distribution is rescaled by the region's UplinkScale.
func regionWorkload(global workload.Params, r Region) (workload.Params, error) {
	wl := global.Clone()
	wl.BaseArrivalRate = global.BaseArrivalRate * r.Share
	if s := r.UplinkScale; s > 0 && s != 1 {
		up, err := mathx.NewBoundedPareto(wl.PeerUplink.Lo*s, wl.PeerUplink.Hi*s, wl.PeerUplink.Shape)
		if err != nil {
			return workload.Params{}, fmt.Errorf("geo: region %q uplink: %w", r.Name, err)
		}
		wl.PeerUplink = up
	}
	return wl, nil
}

// validateRegions checks the region set and returns its names.
func validateRegions(regions []Region) (map[string]bool, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("%w: no regions", ErrConfig)
	}
	var total float64
	seen := make(map[string]bool, len(regions))
	for i, r := range regions {
		if r.Name == "" {
			return nil, fmt.Errorf("%w: region %d has empty name", ErrConfig, i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("%w: duplicate region %q", ErrConfig, r.Name)
		}
		seen[r.Name] = true
		if r.Share <= 0 {
			return nil, fmt.Errorf("%w: region %q: non-positive share %v", ErrConfig, r.Name, r.Share)
		}
		if r.UplinkScale < 0 {
			return nil, fmt.Errorf("%w: region %q: negative uplink scale %v", ErrConfig, r.Name, r.UplinkScale)
		}
		total += r.Share
	}
	if total < 0.999 || total > 1.001 {
		return nil, fmt.Errorf("%w: region shares sum to %v, want 1", ErrConfig, total)
	}
	return seen, nil
}

// validateFaults checks the fault schedule against the region set:
// every scoped event must name a configured region.
func validateFaults(names map[string]bool, faults *fault.Schedule) error {
	if faults == nil {
		return nil
	}
	if err := faults.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrConfig, err)
	}
	known := func(name string) bool { return name == "" || names[name] }
	for _, o := range faults.Outages {
		if !known(o.Region) {
			return fmt.Errorf("%w: outage names unknown region %q", ErrConfig, o.Region)
		}
	}
	for _, p := range faults.Preemptions {
		if !known(p.Region) {
			return fmt.Errorf("%w: preemption names unknown region %q", ErrConfig, p.Region)
		}
	}
	for _, d := range faults.Degradations {
		if !known(d.Region) {
			return fmt.Errorf("%w: degradation names unknown region %q", ErrConfig, d.Region)
		}
	}
	return nil
}

// outageShare is the combined share of every region the outages can take
// down. It sums in region-declaration order, not map order: float
// addition is not associative, and the sum sets both a validation
// threshold and every survivor's arrival envelope.
func outageShare(regions []Region, outages []fault.RegionOutage) float64 {
	failing := make(map[string]bool, len(regions))
	for _, o := range outages {
		failing[o.Region] = true
	}
	var down float64
	for _, r := range regions {
		if failing[r.Name] {
			down += r.Share
		}
	}
	return down
}

// largestRegion returns the name of the region with the biggest share
// (first wins ties) — the default victim for an unscoped outage.
func largestRegion(regions []Region) string {
	best, share := "", -1.0
	for _, r := range regions {
		if r.Share > share {
			best, share = r.Name, r.Share
		}
	}
	return best
}

// shareSchedule is a region's arrival-share factor as a function of time:
// 1 in steady state, 0 while the region is down, above 1 while it absorbs
// a failed sibling's arrivals. It is piecewise constant, changing only at
// the declared outage edges: factors[k] holds from edges[k-1] (inclusive)
// to edges[k], factors[0] before the first edge. A fault-free deployment
// has no edges and factor 1.
type shareSchedule struct {
	edges   []float64
	factors []float64
}

// piece returns the index of the piece holding t.
func (s *shareSchedule) piece(t float64) int {
	k := 0
	for k < len(s.edges) && s.edges[k] <= t {
		k++
	}
	return k
}

// at returns the factor at time t.
func (s *shareSchedule) at(t float64) float64 { return s.factors[s.piece(t)] }

// shareSource scales a region's demand source by its share schedule at
// every instant it is read. Factor 1 multiplies bit-identically
// (r × 1.0 == r), so a fault-free deployment is exactly the pre-fault geo
// behaviour. The schedule is immutable, so CloneSource shares it.
type shareSource struct {
	src    workload.Source
	shares *shareSchedule
	// maxBoost bounds the factor over the whole run (from the fault
	// schedule), so the arrival-thinning envelope primed at construction
	// stays an upper bound while survivors run above share 1.
	maxBoost float64
}

func (s *shareSource) NumChannels() int { return s.src.NumChannels() }

func (s *shareSource) Rate(channel int, t float64) (float64, error) {
	r, err := s.src.Rate(channel, t)
	return r * s.shares.at(t), err
}

func (s *shareSource) MaxRate(channel int) (float64, error) {
	r, err := s.src.MaxRate(channel)
	return r * s.maxBoost, err
}

// MeanRate integrates the scaled intensity piece by piece; a span inside
// one piece is the source's mean times that piece's factor.
func (s *shareSource) MeanRate(channel int, start, end float64) (float64, error) {
	edges, factors := s.shares.edges, s.shares.factors
	k := s.shares.piece(start)
	if k == len(edges) || edges[k] >= end {
		r, err := s.src.MeanRate(channel, start, end)
		return r * factors[k], err
	}
	var integral float64
	for lo := start; lo < end; k++ {
		hi := end
		if k < len(edges) && edges[k] < end {
			hi = edges[k]
		}
		r, err := s.src.MeanRate(channel, lo, hi)
		if err != nil {
			return 0, err
		}
		integral += r * factors[k] * (hi - lo)
		lo = hi
	}
	return integral / (end - start), nil
}

// RatesInto implements workload.BatchSource: delegate, then scale in
// place by the factor at t, preserving Rate's r×factor operand order.
//
//cloudmedia:hotpath
func (s *shareSource) RatesInto(t float64, dst []float64) error {
	if err := workload.RatesInto(s.src, t, dst); err != nil {
		return err
	}
	f := s.shares.at(t)
	for c := range dst {
		dst[c] *= f
	}
	return nil
}

func (s *shareSource) CloneSource() workload.Source {
	return &shareSource{src: s.src.CloneSource(), shares: s.shares, maxBoost: s.maxBoost}
}

func (s *shareSource) Validate() error { return s.src.Validate() }

// shareSchedules builds every region's share schedule from the resolved
// outage windows, each half-open [Start, Start+Duration): at every edge
// the regions whose window holds it are down and get 0, and the survivors
// re-normalize to 1/(1 − downShare), the down share summed in region
// order, so the global arrival mass is conserved.
func shareSchedules(regions []Region, outages []fault.RegionOutage) []*shareSchedule {
	var edges []float64
	for _, o := range outages {
		edges = append(edges, o.Start, o.Start+o.Duration)
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	out := make([]*shareSchedule, len(regions))
	for i := range out {
		out[i] = &shareSchedule{edges: edges, factors: make([]float64, len(edges)+1)}
	}
	index := make(map[string]int, len(regions))
	for i, r := range regions {
		index[r.Name] = i
	}
	down := make([]bool, len(regions))
	for k := 0; k <= len(edges); k++ {
		clear(down)
		if k > 0 {
			for _, o := range outages {
				if at := edges[k-1]; o.Start <= at && at < o.Start+o.Duration {
					down[index[o.Region]] = true
				}
			}
		}
		var downShare float64
		for i, r := range regions {
			if down[i] {
				downShare += r.Share
			}
		}
		boost := 1.0
		if downShare > 0 && downShare < 1 {
			boost = 1 / (1 - downShare)
		}
		for i := range regions {
			if down[i] {
				out[i].factors[k] = 0
			} else {
				out[i].factors[k] = boost
			}
		}
	}
	return out
}

// RegionSystem is one region's running stack, built by stack.Build from
// the region's derived scenario.
type RegionSystem struct {
	Region Region
	*stack.System

	shares *shareSchedule
	down   bool
}

// geoEvent is one outage boundary in deployment time.
type geoEvent struct {
	time   float64
	start  bool // outage start (false = recovery)
	region int  // index into Deployment.regions
}

// Deployment is the full multi-region system.
type Deployment struct {
	regions []*RegionSystem
	systems []*stack.System // the regions' stacks, for stack.Run

	events    []geoEvent // outage boundaries, sorted
	handoffGB float64    // per-migrated-viewer transfer footprint
}

// New builds every regional stack from the scenario — each bootstrapped
// from the analytic t=0 estimates with its hourly controller started —
// and arms the scenario's outages as cross-region failover. Region i runs
// a copy of sc whose workload is scaled by the region's share and
// UplinkScale, whose demand reads through the region's share source, and
// whose seed is sc.Seed + 7919·i; provisioning is always dynamic, so a
// static P2P spec runs cloud-assisted.
func New(sc stack.Spec, regions []Region) (*Deployment, error) {
	names, err := validateRegions(regions)
	if err != nil {
		return nil, err
	}
	if err := validateFaults(names, sc.Faults); err != nil {
		return nil, err
	}
	if sc.Source != nil {
		return nil, fmt.Errorf("%w: regions split the parametric workload; a demand source is not supported", ErrConfig)
	}
	// Resolve unscoped outages to the largest-share region before the
	// regional stacks see them, or every region would go dark, and
	// recheck their overlap. Each stack zeroes its own capacity over its
	// outages (fault.Attach); the deployment migrates the shares in Run.
	var outages []fault.RegionOutage
	if sc.Faults != nil {
		sc.Faults = sc.Faults.Clone()
		outages = sc.Faults.Outages
		for i := range outages {
			if outages[i].Region == "" {
				outages[i].Region = largestRegion(regions)
			}
		}
		if err := sc.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrConfig, err)
		}
	}
	// Survivors scale by at most 1/(1−S), S the share the outages can take
	// down; a fault-free deployment gets exactly 1, leaving its arrival
	// envelopes (and every pre-fault golden) untouched.
	down := outageShare(regions, outages)
	if down >= 0.999 {
		return nil, fmt.Errorf("%w: outages can take down share %v, nothing left to fail over to", ErrConfig, down)
	}
	maxBoost := 1 / (1 - down)
	sc.Mode = modes.Dynamic(sc.Mode)
	d := &Deployment{handoffGB: sc.Channel.ChunkBytes() / 1e9}
	schedules := shareSchedules(regions, outages)
	for i, region := range regions {
		rsc := sc
		if rsc.Workload, err = regionWorkload(sc.Workload, region); err != nil {
			return nil, err
		}
		share := schedules[i]
		rsc.Source = &shareSource{src: rsc.Workload.Source(), shares: share, maxBoost: maxBoost}
		rsc.Seed = sc.Seed + int64(i)*7919 // distinct stream per region
		sys, err := stack.Build(stack.Scenario{Spec: rsc}, stack.RegionID{Name: region.Name, FaultSeedOffset: 1})
		if err != nil {
			return nil, fmt.Errorf("geo: region %q: %w", region.Name, err)
		}
		d.regions = append(d.regions, &RegionSystem{Region: region, System: sys, shares: share})
		d.systems = append(d.systems, sys)
	}
	d.buildEvents(outages)
	return d, nil
}

// buildEvents flattens the outage windows into a sorted boundary list.
// Ties process recoveries before starts, then lower region index, so the
// order is deterministic.
func (d *Deployment) buildEvents(outages []fault.RegionOutage) {
	index := make(map[string]int, len(d.regions))
	for i, r := range d.regions {
		index[r.Region.Name] = i
	}
	for _, o := range outages {
		ri := index[o.Region]
		d.events = append(d.events,
			geoEvent{time: o.Start, start: true, region: ri},
			geoEvent{time: o.Start + o.Duration, start: false, region: ri},
		)
	}
	sort.Slice(d.events, func(i, j int) bool {
		a, b := d.events[i], d.events[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.start != b.start {
			return !a.start // recoveries first
		}
		return a.region < b.region
	})
}

// Run drives every region for the scenario's Hours through stack.Run,
// with the outage boundaries and the caller's marks as extra stops.
// Regions evolve independently between stops (cross-region traffic is out
// of scope, as in the paper's sketch). At each stop Run charges the
// failovers and recoveries due by then (the share schedules migrate the
// arrivals themselves), then calls observe.
func (d *Deployment) Run(ctx context.Context, marks []float64, observe func(stack.Stop)) error {
	all := slices.Clone(marks)
	for _, ev := range d.events {
		all = append(all, ev.time)
	}
	slices.Sort(all)
	next := 0
	return stack.Run(ctx, d.systems, all, func(stop stack.Stop) {
		for ; next < len(d.events) && d.events[next].time <= stop.Time; next++ {
			if ev := d.events[next]; ev.start {
				d.failOver(ev.region)
			} else {
				d.recover(ev.region)
			}
		}
		observe(stop)
	})
}

// failOver marks region ri down at its outage's start, whose arrivals the
// share schedules move to the survivors (proportionally to their shares),
// and charges each receiving region the migrated viewers' handoff bytes.
// The region's own stack zeroes its
// serving capacity over the outage (fault.Attach). Its controller keeps
// running; with arrivals and capacity at zero its next plans collapse to
// (nearly) nothing, so its bill drains on its own.
func (d *Deployment) failOver(ri int) {
	failed := d.regions[ri]
	failed.down = true

	migrated := float64(failed.Sim.TotalUsers())
	if migrated <= 0 {
		return
	}
	var survivingShare float64
	for _, r := range d.regions {
		if !r.down {
			survivingShare += r.Region.Share
		}
	}
	if survivingShare <= 0 {
		return
	}
	for _, r := range d.regions {
		if r.down {
			continue
		}
		moved := migrated * r.Region.Share / survivingShare
		r.Cloud.ChargeTransfer(moved * d.handoffGB * transferUSDPerGB)
	}
}

// recover marks region ri up at its outage's end, where the share
// schedules re-normalize with it back in the pool, and charges it the
// fail-back transfer for its share of the currently served crowd
// returning home.
func (d *Deployment) recover(ri int) {
	recovered := d.regions[ri]
	recovered.down = false

	var crowd float64
	for _, r := range d.regions {
		if r != recovered {
			crowd += float64(r.Sim.TotalUsers())
		}
	}
	returning := crowd * recovered.Region.Share
	recovered.Cloud.ChargeTransfer(returning * d.handoffGB * transferUSDPerGB)
}

// RegionReport is one region's aggregate outcome.
type RegionReport struct {
	Name        string
	Users       int
	Quality     float64
	VMCost      float64
	StorageCost float64
	// Bill is the region's ledger view: dollars split by pricing tier,
	// spot interruption events, and failover transfer charges.
	Bill cloud.LedgerTotals
}

// Report summarizes every region plus the global totals.
func (d *Deployment) Report() (regions []RegionReport, totalVM, totalStorage float64) {
	for _, r := range d.regions {
		now := r.Sim.Now()
		vm, storage := r.Cloud.Costs(now)
		q := r.Sim.SampleQuality()
		regions = append(regions, RegionReport{
			Name:        r.Region.Name,
			Users:       r.Sim.TotalUsers(),
			Quality:     q.Overall,
			VMCost:      vm,
			StorageCost: storage,
			Bill:        r.Cloud.Bill(now),
		})
		totalVM += vm
		totalStorage += storage
	}
	return regions, totalVM, totalStorage
}
