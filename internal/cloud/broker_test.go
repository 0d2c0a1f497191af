package cloud

import (
	"errors"
	"math"
	"testing"
)

func newTestBroker(t *testing.T) (*Broker, *Cloud) {
	t.Helper()
	c := newTestCloud(t)
	b, err := NewBroker(c)
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	return b, c
}

func TestNewBrokerNilCloud(t *testing.T) {
	if _, err := NewBroker(nil); err == nil {
		t.Error("nil cloud: want error")
	}
}

func TestNegotiateCatalog(t *testing.T) {
	b, c := newTestBroker(t)
	cat := b.Negotiate(Catalog{})
	if len(cat.VMClusters) != 3 || len(cat.NFSClusters) != 2 {
		t.Fatalf("catalog sizes: %d VM, %d NFS", len(cat.VMClusters), len(cat.NFSClusters))
	}
	if cat.VMClusters[0].AvailableVMs != 75 {
		t.Errorf("fresh availability = %d, want 75", cat.VMClusters[0].AvailableVMs)
	}
	// Allocate and re-negotiate: availability must shrink.
	if err := c.SetVMs(0, "standard", 20); err != nil {
		t.Fatal(err)
	}
	cat = b.Negotiate(cat)
	if cat.VMClusters[0].AvailableVMs != 55 {
		t.Errorf("availability after allocation = %d, want 55", cat.VMClusters[0].AvailableVMs)
	}
	// Negotiating into the previous catalog reuses its lists.
	if allocs := testing.AllocsPerRun(20, func() { cat = b.Negotiate(cat) }); allocs != 0 {
		t.Errorf("negotiating into the previous catalog allocates %.1f times", allocs)
	}
}

func TestSubmitAppliesRequest(t *testing.T) {
	b, c := newTestBroker(t)
	req := Request{
		Time:      100,
		VMTargets: map[string]int{"standard": 12, "advanced": 3},
		StorageGB: map[string]float64{"high": 5},
	}
	if err := b.Submit(req); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got, _ := c.AllocatedVMs("standard"); got != 12 {
		t.Errorf("standard allocated = %d, want 12", got)
	}
	if got, _ := c.AllocatedVMs("advanced"); got != 3 {
		t.Errorf("advanced allocated = %d, want 3", got)
	}
	if gb, _ := c.StoredGB("high"); gb != 5 {
		t.Errorf("high stored = %v, want 5", gb)
	}
}

func TestSubmitRejectsInvalidAtomically(t *testing.T) {
	b, c := newTestBroker(t)
	// First a valid baseline.
	if err := b.Submit(Request{Time: 0, VMTargets: map[string]int{"standard": 5}}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Now an invalid request: the valid part must NOT be applied.
	err := b.Submit(Request{
		Time:      10,
		VMTargets: map[string]int{"standard": 10, "medium": 99},
	})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	if got, _ := c.AllocatedVMs("standard"); got != 5 {
		t.Errorf("partial application: standard = %d, want 5", got)
	}
}

func TestSubmitUnknownClusters(t *testing.T) {
	b, _ := newTestBroker(t)
	if err := b.Submit(Request{VMTargets: map[string]int{"ghost": 1}}); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("err = %v, want ErrUnknownCluster", err)
	}
	if err := b.Submit(Request{StorageGB: map[string]float64{"ghost": 1}}); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("err = %v, want ErrUnknownCluster", err)
	}
}

// brokerDayHours is one day of hourly provisioning rounds, both ends
// included, as in the 100M-viewer fluid day.
const brokerDayHours = 25

// BenchmarkBrokerApply replays the cloud side of the 100M-viewer fluid
// day: two 4.2M-VM clusters and 25 hourly rounds on a diurnal curve (5%
// of capacity at 09:00, 95% at 21:00), each a Broker.Negotiate and a
// Broker.Submit, as the controller issues them. Each iteration is one day
// on a fresh cloud.
func BenchmarkBrokerApply(b *testing.B) {
	const maxVMs = 4_200_000
	specs := []VMClusterSpec{
		{Name: "mega-a", Utility: 1.0, PricePerHour: 0.64, MaxVMs: maxVMs},
		{Name: "mega-b", Utility: 0.9, PricePerHour: 0.60, MaxVMs: maxVMs},
	}
	reqs := make([]Request, brokerDayHours)
	for h := range reqs {
		f := 0.5 - 0.45*math.Cos(2*math.Pi*float64(h-9)/24)
		reqs[h] = Request{Time: float64(h) * 3600, VMTargets: map[string]int{
			"mega-a": int(f * maxVMs),
			"mega-b": int(0.8 * f * maxVMs),
		}}
	}
	b.ReportAllocs()
	for b.Loop() {
		c, err := New(specs, nil)
		if err != nil {
			b.Fatal(err)
		}
		br, err := NewBroker(c)
		if err != nil {
			b.Fatal(err)
		}
		var cat Catalog
		for _, req := range reqs {
			cat = br.Negotiate(cat)
			if err := br.Submit(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*brokerDayHours), "ns/submit")
}
