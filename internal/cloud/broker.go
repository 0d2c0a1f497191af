package cloud

import (
	"fmt"
	"sort"
)

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

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
// request applies or none of it does.
// Clusters are processed in sorted-name order so both the reported error
// (when several clusters are invalid) and the apply sequence are
// deterministic regardless of map iteration order.
func (b *Broker) Submit(req Request) error {
	vmNames := sortedKeys(req.VMTargets)
	nfsNames := sortedKeys(req.StorageGB)

	// Pre-validate against capacity so a partial failure cannot leave the
	// cloud half-reconfigured.
	for _, name := range vmNames {
		target := req.VMTargets[name]
		found := false
		for _, s := range b.cloud.vmSpecs {
			if s.Name == name {
				found = true
				if target < 0 || target > s.MaxVMs {
					return fmt.Errorf("%w: cluster %q: %d VMs (capacity %d)", ErrCapacity, name, target, s.MaxVMs)
				}
			}
		}
		if !found {
			return fmt.Errorf("%w: VM cluster %q", ErrUnknownCluster, name)
		}
	}
	for _, name := range nfsNames {
		gb := req.StorageGB[name]
		found := false
		for _, s := range b.cloud.nfsSpecs {
			if s.Name == name {
				found = true
				if gb < 0 || gb > s.CapacityGB {
					return fmt.Errorf("%w: NFS cluster %q: %v GB (capacity %v)", ErrCapacity, name, gb, s.CapacityGB)
				}
			}
		}
		if !found {
			return fmt.Errorf("%w: NFS cluster %q", ErrUnknownCluster, name)
		}
	}

	for _, name := range vmNames {
		if err := b.cloud.SetVMs(req.Time, name, req.VMTargets[name]); err != nil {
			return err
		}
	}
	for _, name := range nfsNames {
		if err := b.cloud.SetStorage(req.Time, name, req.StorageGB[name]); err != nil {
			return err
		}
	}
	return nil
}
