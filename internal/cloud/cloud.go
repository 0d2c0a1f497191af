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

// WithPricing selects the pricing plan the cloud's ledger bills under
// (default: OnDemandPricing, the paper's literal pay-as-you-go prices).
func WithPricing(plan PricingPlan) Option {
	return func(c *Cloud) { c.pricing = plan }
}

// vmClusterState tracks one virtual cluster at runtime.
type vmClusterState struct {
	spec      VMClusterSpec
	allocated int // VMs currently rented (billed)
}

// nfsClusterState tracks one NFS cluster at runtime.
type nfsClusterState struct {
	spec     NFSClusterSpec
	storedGB float64
}

// Cloud is the simulated IaaS infrastructure. All methods are safe for
// concurrent use. Simulated time flows through the `now` parameters, which
// callers keep non-decreasing. Mutators reject a non-finite now; an
// earlier now than the last billed one is accepted but bills no time.
type Cloud struct {
	mu sync.Mutex

	vms map[string]*vmClusterState
	nfs map[string]*nfsClusterState
	// vmSpecs and nfsSpecs are the catalogs in registration order. They
	// are fixed once New returns, so they are read without the lock.
	vmSpecs  []VMClusterSpec
	nfsSpecs []NFSClusterSpec

	pricing PricingPlan
	ledger  *Ledger

	lastBilled  float64
	vmCost      float64
	storageCost float64

	// vmUse and nfsUse are accrueLocked's scratch, sized once in New so
	// that billing does not allocate. Guarded by mu.
	vmUse  []vmUsage
	nfsUse []storageUsage
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
		vms: make(map[string]*vmClusterState, len(vmSpecs)),
		nfs: make(map[string]*nfsClusterState, len(nfsSpecs)),
	}
	for _, s := range vmSpecs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.vms[s.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate VM cluster %q", s.Name)
		}
		c.vms[s.Name] = &vmClusterState{spec: s}
		c.vmSpecs = append(c.vmSpecs, s)
	}
	for _, s := range nfsSpecs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.nfs[s.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate NFS cluster %q", s.Name)
		}
		c.nfs[s.Name] = &nfsClusterState{spec: s}
		c.nfsSpecs = append(c.nfsSpecs, s)
	}
	c.vmUse = make([]vmUsage, 0, len(c.vmSpecs))
	c.nfsUse = make([]storageUsage, 0, len(c.nfsSpecs))
	for _, o := range opts {
		o(c)
	}
	if err := c.pricing.Validate(); err != nil {
		return nil, err
	}
	c.ledger = newLedger(c.pricing, vmSpecs)
	return c, nil
}

// Ledger returns the billing ledger accruing this cloud's bill under its
// pricing plan.
func (c *Cloud) Ledger() *Ledger { return c.ledger }

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

// SetVMs scales cluster `name` to `target` allocated VMs at simulated time
// now. VMs bill from the request, like EC2, and a scale-down stops their
// billing at once. It is the VM-scheduler entry point of Fig. 1.
func (c *Cloud) SetVMs(now float64, name string, target int) error {
	if target < 0 {
		return fmt.Errorf("cloud: negative VM target %d", target)
	}
	if err := checkTime(now); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.vms[name]
	if !ok {
		return fmt.Errorf("%w: VM cluster %q", ErrUnknownCluster, name)
	}
	if target > st.spec.MaxVMs {
		return fmt.Errorf("%w: cluster %q: want %d VMs, capacity %d", ErrCapacity, name, target, st.spec.MaxVMs)
	}
	c.accrueLocked(now)
	st.allocated = target
	return nil
}

// AllocatedVMs returns the number of VMs currently rented (billed) in the
// cluster.
func (c *Cloud) AllocatedVMs(name string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.vms[name]
	if !ok {
		return 0, fmt.Errorf("%w: VM cluster %q", ErrUnknownCluster, name)
	}
	return st.allocated, nil
}

// PreemptSpot mass-preempts the given fraction of every cluster's spot
// instances at time now — the provider-side interruption event of the
// spot market. Spot counts are resolved per cluster exactly as the ledger
// bills them (SpotFraction of the elastic allocation above the reserved
// count); preempted VMs stop billing immediately. It records
// the interruption event in the ledger and returns the VMs killed plus
// the fraction of the total allocation lost, so the caller can scale the
// serving plane's capacities by the survivor share.
// A plan without a spot tier is a no-op.
func (c *Cloud) PreemptSpot(now, fraction float64) (killed int, lostFraction float64, err error) {
	if fraction < 0 || fraction > 1 {
		return 0, 0, fmt.Errorf("cloud: preemption fraction %v outside [0,1]", fraction)
	}
	if err := checkTime(now); err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	if c.pricing.SpotFraction <= 0 {
		c.mu.Unlock()
		return 0, 0, nil
	}
	c.accrueLocked(now)
	var before int
	for _, spec := range c.vmSpecs {
		st := c.vms[spec.Name]
		before += st.allocated
		spot := c.pricing.spotVMs(st.allocated - c.ledger.ReservedVMs(spec.Name))
		kill := int(float64(spot)*fraction + 0.5 + 1e-9)
		if kill > spot {
			kill = spot
		}
		st.allocated -= kill
		killed += kill
	}
	c.mu.Unlock()
	if before > 0 {
		lostFraction = float64(killed) / float64(before)
	}
	c.ledger.RecordInterruption()
	return killed, lostFraction, nil
}

// SetStorage sets the absolute number of GB stored on NFS cluster `name` at
// time now. It is the NFS-scheduler entry point of Fig. 1.
func (c *Cloud) SetStorage(now float64, name string, gb float64) error {
	if gb < 0 {
		return fmt.Errorf("cloud: negative storage %v GB", gb)
	}
	if err := checkTime(now); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.nfs[name]
	if !ok {
		return fmt.Errorf("%w: NFS cluster %q", ErrUnknownCluster, name)
	}
	if gb > st.spec.CapacityGB {
		return fmt.Errorf("%w: NFS cluster %q: want %v GB, capacity %v", ErrCapacity, name, gb, st.spec.CapacityGB)
	}
	c.accrueLocked(now)
	st.storedGB = gb
	return nil
}

// StoredGB returns the GB currently stored on the cluster.
func (c *Cloud) StoredGB(name string) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.nfs[name]
	if !ok {
		return 0, fmt.Errorf("%w: NFS cluster %q", ErrUnknownCluster, name)
	}
	return st.storedGB, nil
}

// Advance accrues billing up to simulated time now. Callers typically
// invoke it once per provisioning interval and once at the end of a run.
func (c *Cloud) Advance(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueLocked(now)
}

// accrueLocked integrates rental costs from lastBilled to now. A
// non-finite now bills no time, so it cannot poison the costs.
// Caller holds c.mu.
func (c *Cloud) accrueLocked(now float64) {
	if !(now > c.lastBilled) || math.IsInf(now, 1) {
		return
	}
	hours := (now - c.lastBilled) / 3600
	// Accrue in registration order: float addition is not associative, so
	// ranging the maps here would make the accrued cost depend on Go's
	// randomized iteration order and break bit-identical replay.
	for _, spec := range c.vmSpecs {
		st := c.vms[spec.Name]
		c.vmCost += float64(st.allocated) * st.spec.PricePerHour * hours
	}
	for _, spec := range c.nfsSpecs {
		st := c.nfs[spec.Name]
		c.storageCost += st.storedGB * st.spec.PricePerGBHour * hours
	}
	vms := c.vmUse[:0]
	for _, spec := range c.vmSpecs {
		st := c.vms[spec.Name]
		vms = append(vms, vmUsage{name: spec.Name, price: st.spec.PricePerHour, allocated: st.allocated})
	}
	nfs := c.nfsUse[:0]
	for _, spec := range c.nfsSpecs {
		st := c.nfs[spec.Name]
		nfs = append(nfs, storageUsage{price: st.spec.PricePerGBHour, gb: st.storedGB})
	}
	c.ledger.accrue(c.lastBilled, now, vms, nfs)
	c.lastBilled = now
}

// Costs returns the accrued VM rental and storage costs in dollars, as of
// the last Advance/SetVMs/SetStorage call.
func (c *Cloud) Costs() (vmCost, storageCost float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vmCost, c.storageCost
}
