package cloud

import "fmt"

// VMClusterSpec describes one virtual cluster: VMs of identical
// configuration available for rental (Table II).
type VMClusterSpec struct {
	Name         string  // cluster identifier, e.g. "standard"
	Utility      float64 // performance factor ũ_v (higher is better)
	MemoryMB     int     // VM memory
	CPUMHz       int     // VM CPU allocation
	DiskGB       int     // VM local disk
	PricePerHour float64 // rental price p̃_v, dollars per VM-hour
	MaxVMs       int     // N_v: VMs the cluster can provision
}

// Validate checks spec invariants.
func (s VMClusterSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cloud: VM cluster with empty name")
	case s.Utility <= 0:
		return fmt.Errorf("cloud: VM cluster %q: non-positive utility %v", s.Name, s.Utility)
	case s.PricePerHour <= 0:
		return fmt.Errorf("cloud: VM cluster %q: non-positive price %v", s.Name, s.PricePerHour)
	case s.MaxVMs <= 0:
		return fmt.Errorf("cloud: VM cluster %q: non-positive capacity %d", s.Name, s.MaxVMs)
	}
	return nil
}

// MarginalUtility returns ũ_v/p̃_v, the sort key of the VM configuration
// heuristic (Sec. V-A2).
func (s VMClusterSpec) MarginalUtility() float64 { return s.Utility / s.PricePerHour }

// NFSClusterSpec describes one NFS storage cluster (Table III).
type NFSClusterSpec struct {
	Name           string  // cluster identifier, e.g. "high"
	Utility        float64 // performance factor u_f
	RotationRPM    int     // disk rotation speed, descriptive only
	PricePerGBHour float64 // storage price p_f, dollars per GB-hour
	CapacityGB     float64 // S_f: storage capacity
}

// Validate checks spec invariants.
func (s NFSClusterSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cloud: NFS cluster with empty name")
	case s.Utility <= 0:
		return fmt.Errorf("cloud: NFS cluster %q: non-positive utility %v", s.Name, s.Utility)
	case s.PricePerGBHour <= 0:
		return fmt.Errorf("cloud: NFS cluster %q: non-positive price %v", s.Name, s.PricePerGBHour)
	case s.CapacityGB <= 0:
		return fmt.Errorf("cloud: NFS cluster %q: non-positive capacity %v", s.Name, s.CapacityGB)
	}
	return nil
}

// MarginalUtility returns u_f/p_f, the sort key of the storage rental
// heuristic (Sec. V-A1).
func (s NFSClusterSpec) MarginalUtility() float64 { return s.Utility / s.PricePerGBHour }

// DefaultVMBandwidth is the bandwidth allocated to every VM in the paper's
// testbed: 10 Mbps, expressed in bytes per second.
const DefaultVMBandwidth = 10e6 / 8

// DefaultBootSeconds is the measured VM launch latency of Sec. VI-C.
const DefaultBootSeconds = 25.0

// DefaultVMClusters returns Table II exactly.
func DefaultVMClusters() []VMClusterSpec {
	return []VMClusterSpec{
		{Name: "standard", Utility: 0.6, MemoryMB: 128, CPUMHz: 500, DiskGB: 5, PricePerHour: 0.450, MaxVMs: 75},
		{Name: "medium", Utility: 0.8, MemoryMB: 192, CPUMHz: 500, DiskGB: 5, PricePerHour: 0.700, MaxVMs: 30},
		{Name: "advanced", Utility: 1.0, MemoryMB: 256, CPUMHz: 500, DiskGB: 5, PricePerHour: 0.800, MaxVMs: 45},
	}
}

// DefaultNFSClusters returns Table III exactly.
func DefaultNFSClusters() []NFSClusterSpec {
	return []NFSClusterSpec{
		{Name: "standard", Utility: 0.8, RotationRPM: 7200, PricePerGBHour: 1.11e-4, CapacityGB: 20},
		{Name: "high", Utility: 1.0, RotationRPM: 10800, PricePerGBHour: 2.08e-4, CapacityGB: 20},
	}
}
