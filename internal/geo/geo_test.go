package geo

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/fault"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/stack"
	"cloudmedia/internal/testutil"
	"cloudmedia/internal/workload"
)

func testScenario() stack.Spec {
	ch := testutil.ChannelConfig(5, 60)
	ch.SlotsPerVM = 5
	// The paper's default 15-minute jump interval, unlike the shortened
	// intervals the engine tests use.
	wl := testutil.FlatWorkload(2, 0.6, workload.Default().JumpMeanSeconds)
	return stack.Spec{
		Mode:            modes.ClientServer,
		Channel:         ch,
		Workload:        wl,
		Hours:           1,
		IntervalSeconds: 600,
		Seed:            5,
	}
}

// run drives d to the end of its scenario's Hours through Run.
func run(t *testing.T, d *Deployment, observe func(stack.Stop)) {
	t.Helper()
	if err := d.Run(context.Background(), nil, observe); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func twoRegions() []Region {
	return []Region{
		{Name: "us-east", Share: 0.7},
		{Name: "eu-west", Share: 0.3},
	}
}

func TestConfigValidation(t *testing.T) {
	sc := testScenario()
	cases := map[string][]Region{
		"no regions":              nil,
		"shares not summing to 1": {{Name: "a", Share: 0.5}, {Name: "b", Share: 0.2}},
		"duplicate region":        {{Name: "a", Share: 0.5}, {Name: "a", Share: 0.5}},
		"unnamed region":          {{Name: "", Share: 1}},
		"negative uplink scale":   {{Name: "x", Share: 1, UplinkScale: -1}},
	}
	for name, regions := range cases {
		if _, err := New(sc, regions); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: New = %v, want ErrConfig", name, err)
		}
	}
	// Regions split the parametric workload; a demand source is rejected
	// rather than silently ignored.
	withSource := sc
	withSource.Source = sc.Workload.Source()
	if _, err := New(withSource, twoRegions()); !errors.Is(err, ErrConfig) {
		t.Errorf("demand source: New = %v, want ErrConfig", err)
	}
	// The spec's own checks run through stack.Build for every region.
	negative := sc
	negative.VMBudget = -100
	if _, err := New(negative, twoRegions()); err == nil {
		t.Error("negative VM budget accepted")
	}
}

func TestValidateFaultSchedule(t *testing.T) {
	cases := map[string][]fault.RegionOutage{
		"unknown outage region": {{Region: "atlantis", Start: 600, Duration: 600}},
		"outages covering every region": {
			{Region: "us-east", Start: 600, Duration: 600},
			{Region: "eu-west", Start: 1800, Duration: 600},
		},
		"overlapping outages of one region": {
			{Region: "us-east", Start: 600, Duration: 1200},
			{Region: "us-east", Start: 1200, Duration: 1200},
		},
		// An unscoped outage falls on the largest region, us-east, so it
		// overlaps the named one once resolved.
		"unscoped outage overlapping the largest region's": {
			{Region: "us-east", Start: 600, Duration: 1200},
			{Start: 1200, Duration: 1200},
		},
	}
	for name, outages := range cases {
		sc := testScenario()
		sc.Faults = &fault.Schedule{Outages: outages}
		if _, err := New(sc, twoRegions()); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: New = %v, want ErrConfig", name, err)
		}
	}
}

func TestDeploymentSplitsPopulationByShare(t *testing.T) {
	sc := testScenario()
	sc.Hours = 0.5
	d, err := New(sc, twoRegions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(t, d, func(stack.Stop) {})
	regions, totalVM, _ := d.Report()
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	if regions[0].Users <= regions[1].Users {
		t.Errorf("us-east (70%% share) has %d users vs eu-west %d", regions[0].Users, regions[1].Users)
	}
	if totalVM <= 0 {
		t.Error("no VM cost accrued")
	}
	for _, r := range regions {
		if r.Quality < 0.7 {
			t.Errorf("region %s quality %v", r.Name, r.Quality)
		}
	}
}

// TestRegionalPricingChangesBill: the scenario's VM catalog reaches every
// region, so halving its prices lowers every regional bill.
func TestRegionalPricingChangesBill(t *testing.T) {
	run := func(priceFactor float64) []RegionReport {
		sc := testScenario()
		sc.Hours = 1200.0 / 3600
		sc.VMClusters = cloud.DefaultVMClusters()
		for i := range sc.VMClusters {
			sc.VMClusters[i].PricePerHour *= priceFactor
		}
		d, err := New(sc, twoRegions())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		run(t, d, func(stack.Stop) {})
		for _, r := range d.regions {
			if got, want := r.Cloud.VMClusters()[0].PricePerHour, sc.VMClusters[0].PricePerHour; got != want {
				t.Errorf("region %s rents at $%v/h, want the scenario's $%v/h", r.Region.Name, got, want)
			}
		}
		regions, _, _ := d.Report()
		return regions
	}
	cheap, expensive := run(0.5), run(1.0)
	for i := range cheap {
		if cheap[i].VMCost >= expensive[i].VMCost {
			t.Errorf("region %s: half-price bill %v not below full price %v",
				cheap[i].Name, cheap[i].VMCost, expensive[i].VMCost)
		}
	}
}

func TestRegionsAreIndependentSeedStreams(t *testing.T) {
	sc := testScenario()
	sc.Hours = 1200.0 / 3600
	d, err := New(sc, []Region{
		{Name: "a", Share: 0.5},
		{Name: "b", Share: 0.5},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(t, d, func(stack.Stop) {})
	regions, _, _ := d.Report()
	// Equal shares but distinct seed streams: byte-identical populations at
	// every instant would indicate correlated randomness.
	a := d.regions[0].Sim.CloudBytesServed()
	b := d.regions[1].Sim.CloudBytesServed()
	if a == b && regions[0].Users == regions[1].Users {
		t.Error("regions appear to share a random stream")
	}
}

func TestDeploymentDefaultsApplied(t *testing.T) {
	sc := testScenario()
	sc.IntervalSeconds = 0
	sc.VMBudget = 0
	sc.StorageBudget = 0
	d, err := New(sc, twoRegions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(d.regions) != 2 {
		t.Error("regions not built")
	}
}

func TestRegionWorkloadUplinkHeterogeneity(t *testing.T) {
	global := workload.Default()
	weak := Region{Name: "apac", Share: 0.2, UplinkScale: 0.7}
	strong := Region{Name: "na", Share: 0.5, UplinkScale: 1.2}
	wWeak, err := regionWorkload(global, weak)
	if err != nil {
		t.Fatal(err)
	}
	wStrong, err := regionWorkload(global, strong)
	if err != nil {
		t.Fatal(err)
	}
	base := global.PeerUplink.Mean()
	if got := wWeak.PeerUplink.Mean(); math.Abs(got-0.7*base) > 1e-9*base {
		t.Errorf("weak region mean uplink %v, want %v", got, 0.7*base)
	}
	if got := wStrong.PeerUplink.Mean(); math.Abs(got-1.2*base) > 1e-9*base {
		t.Errorf("strong region mean uplink %v, want %v", got, 1.2*base)
	}
	if wWeak.BaseArrivalRate != global.BaseArrivalRate*0.2 {
		t.Errorf("share not applied: %v", wWeak.BaseArrivalRate)
	}
}

func TestDefaultRegionsValid(t *testing.T) {
	if _, err := New(testScenario(), DefaultRegions()); err != nil {
		t.Errorf("DefaultRegions invalid: %v", err)
	}
}

// TestDeploymentHonoursPolicyAndPricing pins the PR 4 plumbing: the
// configured provisioning policy and billing plan must reach every
// regional controller and ledger (the regional experiment advertises
// -policy/-pricing support).
func TestDeploymentHonoursPolicyAndPricing(t *testing.T) {
	sc := testScenario()
	// A flash crowd at the start that has passed by the third round: a
	// policy that replans on the true rates sheds VMs as it fades, so
	// only a held rental keeps the bootstrap's count.
	sc.Workload.FlashCrowds = []workload.FlashCrowd{{PeakHour: 0, WidthHours: 0.1, Amplitude: 3}}
	sc.Hours = 1200.0 / 3600
	sc.Policy = provision.StaticPeak{Intervals: 2}
	sc.Pricing = cloud.ReservedPricing()
	dep, err := New(sc, twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	// StaticPeak holds its first plan: after every later round each
	// region still rents what its bootstrap round rented, per cluster.
	rented := func(r *RegionSystem) []int {
		var vms []int
		for _, spec := range r.Cloud.VMClusters() {
			n, err := r.Cloud.AllocatedVMs(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, n)
		}
		return vms
	}
	first := make([][]int, len(dep.regions))
	for i, r := range dep.regions {
		first[i] = rented(r)
		if !slices.ContainsFunc(first[i], func(n int) bool { return n > 0 }) {
			t.Fatalf("region %s: bootstrap round rented no VMs", r.Region.Name)
		}
	}
	// The stops at 900 s and at the end (1200 s) follow the rounds at
	// 600 s and 1200 s.
	stops := 0
	run(t, dep, func(stop stack.Stop) {
		stops++
		for i, r := range dep.regions {
			if got := rented(r); !slices.Equal(got, first[i]) {
				t.Errorf("region %s: static rental moved to %v at %v s, want %v", r.Region.Name, got, stop.Time, first[i])
			}
		}
	})
	if stops != 2 {
		t.Errorf("%d stops, want 2", stops)
	}
	for _, r := range dep.regions {
		if got := r.Cloud.Pricing().DisplayName(); got != "reserved" {
			t.Errorf("region %s billed under %q, want reserved", r.Region.Name, got)
		}
		if r.Cloud.Bill(r.Sim.Now()).UpfrontUSD <= 0 {
			t.Errorf("region %s accrued no upfront under the reserved plan", r.Region.Name)
		}
	}
}

// faultScenario is the adversarial deployment the failover tests share:
// an outage taking the large region dark for one interval, a global spot
// preemption while it is down, everything billed on the spot plan.
func faultScenario() stack.Spec {
	sc := testScenario()
	sc.Hours = 0.5
	sc.Pricing = cloud.SpotPricing()
	sc.Faults = &fault.Schedule{
		Outages:     []fault.RegionOutage{{Region: "us-east", Start: 600, Duration: 600}},
		Preemptions: []fault.SpotPreemption{{At: 900, Fraction: 0.5}},
	}
	return sc
}

// TestOutageFailoverMigratesSharesAndChargesTransfer exercises the PR 10
// failover path end to end: the failed region's arrivals move to the
// survivor (shares re-normalized through the share schedule), the
// handoff bytes are charged to the receiving region, and recovery
// restores the shares and charges the fail-back.
func TestOutageFailoverMigratesSharesAndChargesTransfer(t *testing.T) {
	d, err := New(faultScenario(), twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	east, west := d.regions[0], d.regions[1]

	checked := map[float64]bool{}
	run(t, d, func(stop stack.Stop) {
		checked[stop.Time] = true
		switch stop.Time {
		case 900: // the sample stop mid-outage
			if !east.down {
				t.Fatal("failed region not marked down mid-outage")
			}
			if got := east.shares.at(stop.Time); got != 0 {
				t.Errorf("failed region share factor %v, want 0", got)
			}
			if got, want := west.shares.at(stop.Time), 1/(1-0.7); math.Abs(got-want) > 1e-12 {
				t.Errorf("survivor share factor %v, want %v", got, want)
			}
			if got := east.Sim.TotalCloudCapacity(); got != 0 {
				t.Errorf("failed region serves %v bytes/s of cloud capacity, want 0", got)
			}
			if west.Cloud.Bill(stop.Time).TransferUSD <= 0 {
				t.Error("survivor charged no failover transfer")
			}
			if east.Cloud.Bill(stop.Time).Interruptions == 0 {
				t.Error("spot preemption at t=900 left no interruption record")
			}
		case 1200:
			// Outage windows are half-open: the end edge is the first
			// instant of the region's restored share. (Its capacity comes
			// back with the first round that measured its returning
			// arrivals; TestRegionViewersReturnAfterOutage.)
			if got := east.shares.at(stop.Time); got != 1 {
				t.Errorf("recovered region share factor %v at its end edge, want 1", got)
			}
		case 1800: // past recovery
			if east.down || east.shares.at(stop.Time) != 1 || west.shares.at(stop.Time) != 1 {
				t.Errorf("shares not restored after recovery: east=%v west=%v",
					east.shares.at(stop.Time), west.shares.at(stop.Time))
			}
			if east.Cloud.Bill(stop.Time).TransferUSD <= 0 {
				t.Error("recovered region charged no fail-back transfer")
			}
		}
	})
	for _, at := range []float64{600, 900, 1200, 1800} {
		if !checked[at] {
			t.Errorf("no stop at %v s", at)
		}
	}
	regions, _, _ := d.Report()
	if regions[1].Bill.TransferUSD != west.Cloud.Bill(west.Sim.Now()).TransferUSD {
		t.Error("Report bill does not carry the ledger transfer dollars")
	}
}

// TestDegradationInsideOutageKeepsRegionDark: a degradation that starts
// while its region is down multiplies the outage's zero instead of
// replacing it, and after the recovery the region serves the degraded
// share of its capacity (us-east once served 3.75e6 bytes/s at 1000 s,
// mid-outage, and 3e6 instead of 1.5e6 at 1300 s). The degradation runs
// past the 1800 s round, the first to plan on the region's returning
// arrivals.
func TestDegradationInsideOutageKeepsRegionDark(t *testing.T) {
	sc := testScenario()
	sc.Faults = &fault.Schedule{
		Outages:      []fault.RegionOutage{{Region: "us-east", Start: 600, Duration: 600}},
		Degradations: []fault.CapacityDegradation{{Region: "us-east", Start: 900, Duration: 1200, Factor: 0.5}},
	}
	d, err := New(sc, twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	east := d.regions[0]
	served := map[float64]float64{}
	if err := d.Run(context.Background(), []float64{1000, 1900, 2300}, func(stop stack.Stop) {
		served[stop.Time] = east.Sim.TotalCloudCapacity()
	}); err != nil {
		t.Fatal(err)
	}
	if got := served[1000]; got != 0 {
		t.Errorf("us-east serves %v bytes/s at 1000 s, inside its outage, want 0", got)
	}
	// 1900 s and 2300 s share the 1800 s round's booted capacity.
	if got, want := served[1900], 0.5*served[2300]; got != want || want <= 0 {
		t.Errorf("us-east serves %v bytes/s at 1900 s, degraded, want half of %v", got, served[2300])
	}
}

// TestGeoWorkerInvarianceUnderFaults is the PR 10 S4 pin: a faulted
// multi-region run — failover, share migration, spot preemption and all
// — must produce byte-identical per-region reports for every worker
// count, on both engine fidelities. (This also covers the S1 bugfix:
// before PR 10 the Workers knob silently never reached the regional
// engines, so this test could not exist.)
func TestGeoWorkerInvarianceUnderFaults(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		run := func(workers int) []RegionReport {
			sc := faultScenario()
			sc.Fidelity = fid
			sc.Workers = workers
			sc.Hours = 2400.0 / 3600
			d, err := New(sc, twoRegions())
			if err != nil {
				t.Fatalf("fidelity %v workers %d: %v", fid, workers, err)
			}
			run(t, d, func(stack.Stop) {})
			regions, _, _ := d.Report()
			return regions
		}
		serial := run(1)
		if len(serial) != 2 || serial[0].Users+serial[1].Users == 0 {
			t.Fatalf("fidelity %v: serial run served nobody: %+v", fid, serial)
		}
		for _, workers := range []int{4, 8} {
			if got := run(workers); !reflect.DeepEqual(serial, got) {
				t.Errorf("fidelity %v: Workers=%d report diverged from serial\nserial: %+v\ngot:    %+v",
					fid, workers, serial, got)
			}
		}
	}
}

// TestFailoverDeterministicPerSeed pins reproducibility: the same seed
// and fault schedule give byte-identical deployments run to run, on both
// fidelities, and a different seed gives a different realization.
func TestFailoverDeterministicPerSeed(t *testing.T) {
	for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
		run := func(seed int64) []RegionReport {
			sc := faultScenario()
			sc.Fidelity = fid
			sc.Seed = seed
			d, err := New(sc, twoRegions())
			if err != nil {
				t.Fatalf("fidelity %v: %v", fid, err)
			}
			run(t, d, func(stack.Stop) {})
			regions, _, _ := d.Report()
			return regions
		}
		a, b := run(5), run(5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fidelity %v: same seed diverged:\n%+v\n%+v", fid, a, b)
		}
		if fid == modes.FidelityEvent {
			if other := run(6); reflect.DeepEqual(a, other) {
				t.Errorf("fidelity %v: different seeds produced identical reports", fid)
			}
		}
	}
}

// TestFaultFreeDeploymentUntouched pins the bit-identity claim of the
// share wrapper: a deployment with no fault schedule reports exactly what
// the pre-fault geo code reported (factor 1 multiplies bit-identically,
// and the envelope boost is exactly 1).
func TestFaultFreeDeploymentUntouched(t *testing.T) {
	run := func(withNilFaults bool) []RegionReport {
		sc := testScenario()
		sc.Hours = 1200.0 / 3600
		if withNilFaults {
			sc.Faults = nil
		} else {
			sc.Faults = &fault.Schedule{} // empty schedule, same thing
		}
		d, err := New(sc, twoRegions())
		if err != nil {
			t.Fatal(err)
		}
		run(t, d, func(stack.Stop) {})
		regions, _, _ := d.Report()
		return regions
	}
	if a, b := run(true), run(false); !reflect.DeepEqual(a, b) {
		t.Errorf("nil and empty fault schedules diverge:\n%+v\n%+v", a, b)
	}
}

// TestOneRegionDeploymentMatchesSingleRegionRun: a fault-free deployment
// of one region holding the whole crowd is the single-region run. It
// seeds the engine alike, its share factor 1 multiplies the demand
// bit-identically, and both go through stack.Run, so users, quality and
// every dollar agree exactly.
func TestOneRegionDeploymentMatchesSingleRegionRun(t *testing.T) {
	for _, mode := range []modes.Mode{modes.ClientServer, modes.CloudAssisted} {
		for _, fid := range []modes.Fidelity{modes.FidelityEvent, modes.FidelityFluid} {
			sc := stack.DefaultSpec(mode, 1)
			sc.Fidelity = fid
			sc.Hours = 6
			d, err := New(sc, []Region{{Name: "solo", Share: 1}})
			if err != nil {
				t.Fatalf("%v/%v: New: %v", mode, fid, err)
			}
			run(t, d, func(stack.Stop) {})
			got, _, _ := d.Report()

			sys, err := stack.Build(stack.Scenario{Spec: sc}, stack.RegionID{})
			if err != nil {
				t.Fatalf("%v/%v: Build: %v", mode, fid, err)
			}
			if err := stack.Run(context.Background(), []*stack.System{sys}, nil, func(stack.Stop) {}); err != nil {
				t.Fatalf("%v/%v: Run: %v", mode, fid, err)
			}
			vm, storage := sys.Cloud.Costs(sys.Sim.Now())
			want := []RegionReport{{
				Name:        "solo",
				Users:       sys.Sim.TotalUsers(),
				Quality:     sys.Sim.SampleQuality().Overall,
				VMCost:      vm,
				StorageCost: storage,
				Bill:        sys.Cloud.Bill(sys.Sim.Now()),
			}}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: one-region deployment\n%+v\nsingle-region run\n%+v", mode, fid, got, want)
			}
		}
	}
}

// TestRegionViewersReturnAfterOutage: on the event engine a region that
// recovers from an outage gets its viewers back. The share factor is a
// function of time, so the thinning candidates past the recovery read
// the restored share. (When the factor was read as it stood at sampling
// time, every candidate over the one-day horizon read 0: us-east had no
// viewers at 1800, 2400, 3000 or 3599 s, against 85–110 in the
// fault-free run.)
func TestRegionViewersReturnAfterOutage(t *testing.T) {
	sc := testScenario()
	sc.Faults = &fault.Schedule{Outages: []fault.RegionOutage{{Region: "us-east", Start: 600, Duration: 600}}}
	d, err := New(sc, twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	east := d.regions[0]
	users := map[float64]int{}
	capacity := map[float64]float64{}
	if err := d.Run(context.Background(), []float64{1800, 2400, 3000, 3599}, func(stop stack.Stop) {
		users[stop.Time] = east.Sim.TotalUsers()
		capacity[stop.Time] = east.Sim.TotalCloudCapacity()
	}); err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{1800, 2400, 3000, 3599} {
		if users[at] == 0 {
			t.Errorf("us-east has no viewers at %v s, after its outage ended at 1200 s", at)
		}
	}
	if capacity[3000] <= 0 {
		t.Errorf("us-east serves no cloud capacity at 3000 s, after its outage ended at 1200 s")
	}
}
