package cloud

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ErrCapacity is returned when a request exceeds a cluster's capacity.
var ErrCapacity = errors.New("cloud: insufficient cluster capacity")

// ErrUnknownCluster is returned when a request names a cluster that does
// not exist.
var ErrUnknownCluster = errors.New("cloud: unknown cluster")

// Option configures a Cloud.
type Option func(*Cloud)

// WithPricing selects the pricing plan the cloud bills under (default:
// OnDemandPricing, the paper's literal pay-as-you-go prices).
func WithPricing(plan PricingPlan) Option {
	return func(c *Cloud) { c.pricing = plan }
}

// vmClusterState is one virtual cluster's allocation and the integral of
// its allocation over time, in VM-seconds. The integrals cover the closed
// segments before since; the open segment [since, now) is priced when the
// bill is read.
type vmClusterState struct {
	reserved  int // reserved-instance count the plan commits
	allocated int // VMs currently rented (billed)
	since     float64

	// vmSec integrates every rented VM, spotSec and onDemandSec the
	// elastic VMs above the reserved count on each tier.
	vmSec, spotSec, onDemandSec float64
}

// nfsClusterState is one NFS cluster's footprint and its GB-seconds.
type nfsClusterState struct {
	storedGB float64
	since    float64
	gbSec    float64
}

// Cloud is the simulated IaaS infrastructure. All methods are safe for
// concurrent use. Simulated time flows through the `now` parameters, which
// callers keep non-decreasing. Mutators reject a non-finite now; an
// earlier now than the start of a cluster's current allocation is
// accepted but bills no time.
type Cloud struct {
	// vmSpecs and nfsSpecs are the catalogs in registration order, and
	// vmIndex and nfsIndex map a cluster name to its position. They are
	// fixed once New returns, so they are read without the lock.
	vmSpecs  []VMClusterSpec
	nfsSpecs []NFSClusterSpec
	vmIndex  map[string]int
	nfsIndex map[string]int

	pricing PricingPlan
	// upfrontPerTerm is the reserved tier's fee per term, resolved against
	// the catalog in registration order.
	upfrontPerTerm float64

	mu sync.Mutex
	// vms and nfs are the clusters' states, in catalog order.
	vms []vmClusterState
	nfs []nfsClusterState
	// interruptions and transferUSD are the bill's event counts and
	// dollars that no allocation integral carries.
	interruptions int
	transferUSD   float64
	// checkpoint is the bill as of the last Checkpoint.
	checkpoint LedgerTotals
}

// checkTime rejects a NaN or infinite simulated time.
func checkTime(now float64) error {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return fmt.Errorf("cloud: non-finite time %v", now)
	}
	return nil
}

// New builds a Cloud with the given cluster catalogs. Cluster names must be
// unique within their kind.
func New(vmSpecs []VMClusterSpec, nfsSpecs []NFSClusterSpec, opts ...Option) (*Cloud, error) {
	if len(vmSpecs) == 0 {
		return nil, fmt.Errorf("cloud: at least one VM cluster required")
	}
	c := &Cloud{
		vmIndex:  make(map[string]int, len(vmSpecs)),
		nfsIndex: make(map[string]int, len(nfsSpecs)),
	}
	for _, s := range vmSpecs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.vmIndex[s.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate VM cluster %q", s.Name)
		}
		c.vmIndex[s.Name] = len(c.vmSpecs)
		c.vmSpecs = append(c.vmSpecs, s)
	}
	for _, s := range nfsSpecs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.nfsIndex[s.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate NFS cluster %q", s.Name)
		}
		c.nfsIndex[s.Name] = len(c.nfsSpecs)
		c.nfsSpecs = append(c.nfsSpecs, s)
	}
	for _, o := range opts {
		o(c)
	}
	if err := c.pricing.Validate(); err != nil {
		return nil, err
	}
	c.vms = make([]vmClusterState, len(c.vmSpecs))
	c.nfs = make([]nfsClusterState, len(c.nfsSpecs))
	p := c.pricing
	for i, s := range c.vmSpecs {
		n := p.reservedVMs(s.MaxVMs)
		c.vms[i].reserved = n
		c.upfrontPerTerm += float64(n) * s.PricePerHour * p.onDemandRate() * p.TermHours * p.UpfrontFraction
	}
	return c, nil
}

// Pricing returns the pricing plan the cloud bills under.
func (c *Cloud) Pricing() PricingPlan { return c.pricing }

// BootLatency returns the VM launch latency in seconds, the paper's
// measured DefaultBootSeconds. The cloud bills a VM from its request; the
// controller delays the serving capacity a scale-up buys by this much.
func (c *Cloud) BootLatency() float64 { return DefaultBootSeconds }

// VMClusters returns a copy of the VM cluster catalog in registration
// order.
func (c *Cloud) VMClusters() []VMClusterSpec { return slices.Clone(c.vmSpecs) }

// NFSClusters returns a copy of the NFS cluster catalog in registration
// order.
func (c *Cloud) NFSClusters() []NFSClusterSpec { return slices.Clone(c.nfsSpecs) }

// setVMsLocked is the VM scheduler of Fig. 1: it scales cluster i to
// target VMs at now, closing the allocation segment there and opening one
// at the new target. VMs bill from the request, like EC2, and a
// scale-down stops their billing at once. A target equal to the
// allocation closes nothing. Caller holds c.mu.
func (c *Cloud) setVMsLocked(now float64, i, target int) {
	st := &c.vms[i]
	if target == st.allocated {
		return
	}
	if now > st.since {
		st.vmSec, st.spotSec, st.onDemandSec = c.vmSecondsLocked(i, now)
		st.since = now
	}
	st.allocated = target
}

// vmSecondsLocked returns cluster i's VM-second integrals through t: the
// closed ones plus the open segment's. Caller holds c.mu.
func (c *Cloud) vmSecondsLocked(i int, t float64) (all, spot, onDemand float64) {
	st := &c.vms[i]
	all, spot, onDemand = st.vmSec, st.spotSec, st.onDemandSec
	dt := t - st.since
	if !(dt > 0) {
		return all, spot, onDemand
	}
	all += float64(st.allocated) * dt
	if elastic := st.allocated - st.reserved; elastic > 0 {
		s := c.pricing.spotVMs(elastic)
		spot += float64(s) * dt
		onDemand += float64(elastic-s) * dt
	}
	return all, spot, onDemand
}

// AllocatedVMs returns the number of VMs currently rented (billed) in the
// cluster.
func (c *Cloud) AllocatedVMs(name string) (int, error) {
	i, ok := c.vmIndex[name]
	if !ok {
		return 0, fmt.Errorf("%w: VM cluster %q", ErrUnknownCluster, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vms[i].allocated, nil
}

// PreemptSpot mass-preempts the given fraction of every cluster's spot
// instances at time now — the provider-side interruption event of the
// spot market. Spot counts are resolved per cluster exactly as the bill
// prices them (SpotFraction of the elastic allocation above the reserved
// count); preempted VMs stop billing immediately. It counts the
// interruption event on the bill and returns the VMs killed plus the
// fraction of the total allocation lost, so the caller can scale the
// serving plane's capacities by the survivor share.
// A plan without a spot tier is a no-op.
func (c *Cloud) PreemptSpot(now, fraction float64) (killed int, lostFraction float64, err error) {
	if fraction < 0 || fraction > 1 {
		return 0, 0, fmt.Errorf("cloud: preemption fraction %v outside [0,1]", fraction)
	}
	if err := checkTime(now); err != nil {
		return 0, 0, err
	}
	if c.pricing.SpotFraction <= 0 {
		return 0, 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var before int
	for i := range c.vms {
		st := &c.vms[i]
		before += st.allocated
		spot := c.pricing.spotVMs(st.allocated - st.reserved)
		kill := min(int(float64(spot)*fraction+0.5+1e-9), spot)
		c.setVMsLocked(now, i, st.allocated-kill)
		killed += kill
	}
	if before > 0 {
		lostFraction = float64(killed) / float64(before)
	}
	c.interruptions++
	return killed, lostFraction, nil
}

// setStorageLocked is the NFS scheduler of Fig. 1: it sets the GB stored
// on NFS cluster i at now, closing the footprint segment there. A
// footprint equal to the stored one closes nothing. Caller holds c.mu.
func (c *Cloud) setStorageLocked(now float64, i int, gb float64) {
	st := &c.nfs[i]
	if gb == st.storedGB {
		return
	}
	if now > st.since {
		st.gbSec = c.gbSecondsLocked(i, now)
		st.since = now
	}
	st.storedGB = gb
}

// gbSecondsLocked returns NFS cluster i's GB-second integral through t.
// Caller holds c.mu.
func (c *Cloud) gbSecondsLocked(i int, t float64) float64 {
	st := &c.nfs[i]
	if dt := t - st.since; dt > 0 {
		return st.gbSec + st.storedGB*dt
	}
	return st.gbSec
}
