package cloud

import "fmt"

// SetVMs scales one cluster as a one-cluster request through the broker,
// with the validation Broker.Submit gives a whole request.
func (c *Cloud) SetVMs(now float64, name string, target int) error {
	return (&Broker{cloud: c}).Submit(Request{Time: now, VMTargets: map[string]int{name: target}})
}

// SetStorage sets one NFS cluster's footprint as a one-cluster request
// through the broker.
func (c *Cloud) SetStorage(now float64, name string, gb float64) error {
	return (&Broker{cloud: c}).Submit(Request{Time: now, StorageGB: map[string]float64{name: gb}})
}

// StoredGB returns the GB currently stored on the cluster.
func (c *Cloud) StoredGB(name string) (float64, error) {
	i, ok := c.nfsIndex[name]
	if !ok {
		return 0, fmt.Errorf("%w: NFS cluster %q", ErrUnknownCluster, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nfs[i].storedGB, nil
}
