package cloud

import (
	"fmt"
	"maps"
	"slices"
)

// Catalog is the information the SLA negotiator exposes to a consumer
// during negotiation: the cluster specs plus current availability.
type Catalog struct {
	VMClusters  []VMClusterAvailability
	NFSClusters []NFSClusterAvailability
}

// VMClusterAvailability pairs a VM cluster spec with its free capacity.
type VMClusterAvailability struct {
	Spec         VMClusterSpec
	AvailableVMs int // MaxVMs − currently allocated
}

// NFSClusterAvailability pairs an NFS cluster spec with its free capacity.
type NFSClusterAvailability struct {
	Spec        NFSClusterSpec
	AvailableGB float64 // CapacityGB − currently stored
}

// Request is a consumer's resource reconfiguration: absolute targets per
// cluster, matching the paper's periodic SLA updates. Omitted clusters are
// left unchanged.
type Request struct {
	Time      float64            // simulated submission time
	VMTargets map[string]int     // cluster name → VM count
	StorageGB map[string]float64 // NFS cluster name → stored GB
}

// Broker is the communication interface between the VoD provider and the
// cloud (Fig. 1). It performs SLA negotiation (Catalog) and forwards
// requests through the request monitor (Submit).
type Broker struct {
	cloud *Cloud
}

// NewBroker attaches a broker to a cloud.
func NewBroker(c *Cloud) (*Broker, error) {
	if c == nil {
		return nil, fmt.Errorf("cloud: nil cloud")
	}
	return &Broker{cloud: c}, nil
}

// Negotiate returns the current catalog: prices and availability. The controller calls this at the start of every
// provisioning interval (Sec. V-B). The catalog's cluster lists reuse
// into's backing arrays, so passing the previous round's catalog
// negotiates without allocating; a zero Catalog gets fresh lists.
func (b *Broker) Negotiate(into Catalog) Catalog {
	cat := Catalog{
		VMClusters:  into.VMClusters[:0],
		NFSClusters: into.NFSClusters[:0],
	}
	for _, spec := range b.cloud.vmSpecs {
		allocated, err := b.cloud.AllocatedVMs(spec.Name)
		if err != nil {
			continue // cannot happen: spec came from the catalog
		}
		cat.VMClusters = append(cat.VMClusters, VMClusterAvailability{
			Spec:         spec,
			AvailableVMs: spec.MaxVMs - allocated,
		})
	}
	for _, spec := range b.cloud.nfsSpecs {
		stored, err := b.cloud.StoredGB(spec.Name)
		if err != nil {
			continue
		}
		cat.NFSClusters = append(cat.NFSClusters, NFSClusterAvailability{
			Spec:        spec,
			AvailableGB: spec.CapacityGB - stored,
		})
	}
	return cat
}

// Submit validates and applies a reconfiguration request. Either the whole
// request applies, under one lock, or none of it does. Clusters are
// checked and applied in catalog order; when the request names unknown
// clusters, the error reports the first of them in sorted-name order, so
// it is the same whatever the map's iteration order.
func (b *Broker) Submit(req Request) error {
	cl := b.cloud
	if err := checkTime(req.Time); err != nil {
		return err
	}
	known := 0
	for _, s := range cl.vmSpecs {
		if target, ok := req.VMTargets[s.Name]; ok {
			known++
			if target < 0 || target > s.MaxVMs {
				return fmt.Errorf("%w: cluster %q: %d VMs (capacity %d)", ErrCapacity, s.Name, target, s.MaxVMs)
			}
		}
	}
	if known < len(req.VMTargets) {
		return fmt.Errorf("%w: VM cluster %q", ErrUnknownCluster, firstUnknown(req.VMTargets, cl.vmIndex))
	}
	known = 0
	for _, s := range cl.nfsSpecs {
		if gb, ok := req.StorageGB[s.Name]; ok {
			known++
			if gb < 0 || gb > s.CapacityGB {
				return fmt.Errorf("%w: NFS cluster %q: %v GB (capacity %v)", ErrCapacity, s.Name, gb, s.CapacityGB)
			}
		}
	}
	if known < len(req.StorageGB) {
		return fmt.Errorf("%w: NFS cluster %q", ErrUnknownCluster, firstUnknown(req.StorageGB, cl.nfsIndex))
	}

	cl.mu.Lock()
	defer cl.mu.Unlock()
	for i, s := range cl.vmSpecs {
		if target, ok := req.VMTargets[s.Name]; ok {
			cl.setVMsLocked(req.Time, i, target)
		}
	}
	for i, s := range cl.nfsSpecs {
		if gb, ok := req.StorageGB[s.Name]; ok {
			cl.setStorageLocked(req.Time, i, gb)
		}
	}
	return nil
}

// firstUnknown returns the sorted-first key of m that the catalog index
// does not hold.
func firstUnknown[V any](m map[string]V, index map[string]int) string {
	for _, name := range slices.Sorted(maps.Keys(m)) {
		if _, ok := index[name]; !ok {
			return name
		}
	}
	return ""
}
