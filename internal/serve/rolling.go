package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Point is one observation fed to the rolling store.
type Point struct {
	Sim          float64 // simulated seconds
	Viewers      int
	Quality      float64
	DemandBps    float64 // total cloud demand, bytes/s
	ReservedMbps float64
	CostUSD      float64 // cumulative bill at this point
}

// Bin is one aggregated timeline entry: means over the points whose
// simulated time falls in [Start, Start+Width).
type Bin struct {
	Start        float64 `json:"start_s"`
	Width        float64 `json:"width_s"`
	Count        int     `json:"count"`
	Viewers      float64 `json:"viewers"`
	Quality      float64 `json:"quality"`
	DemandBps    float64 `json:"demand_bytes_per_second"`
	ReservedMbps float64 `json:"reserved_mbps"`
	CostUSD      float64 `json:"cost_usd"` // last cumulative bill seen in the bin
}

// Rolling aggregates every observation into fixed-width bins of
// simulated time without keeping the points, so a long-running daemon
// keeps a full-run timeline at constant resolution and bounded memory.
type Rolling struct {
	mu    sync.Mutex
	width float64 // aggregation bin width, simulated seconds
	bins  map[int]*binAcc
}

type binAcc struct {
	count        int
	viewers      float64
	quality      float64
	demand       float64
	reservedMbps float64
	costUSD      float64 // last value wins
	lastSim      float64
}

// NewRolling builds a store aggregating at binSeconds resolution; zero
// picks 15-minute bins.
func NewRolling(binSeconds float64) (*Rolling, error) {
	if binSeconds == 0 {
		binSeconds = 900
	}
	if binSeconds <= 0 || math.IsNaN(binSeconds) || math.IsInf(binSeconds, 0) {
		return nil, fmt.Errorf("serve: invalid bin width %v", binSeconds)
	}
	return &Rolling{width: binSeconds, bins: make(map[int]*binAcc)}, nil
}

// Add folds one observation into its bin.
func (r *Rolling) Add(p Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := int(math.Floor(p.Sim / r.width))
	acc := r.bins[idx]
	if acc == nil {
		acc = &binAcc{}
		r.bins[idx] = acc
	}
	acc.count++
	acc.viewers += float64(p.Viewers)
	acc.quality += p.Quality
	acc.demand += p.DemandBps
	acc.reservedMbps += p.ReservedMbps
	if p.Sim >= acc.lastSim {
		acc.lastSim = p.Sim
		acc.costUSD = p.CostUSD
	}
}

// Timeline returns the aggregated bins in simulated-time order, covering
// the whole run.
func (r *Rolling) Timeline() []Bin {
	r.mu.Lock()
	defer r.mu.Unlock()
	idxs := make([]int, 0, len(r.bins))
	for i := range r.bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Bin, 0, len(idxs))
	for _, i := range idxs {
		acc := r.bins[i]
		n := float64(acc.count)
		out = append(out, Bin{
			Start:        float64(i) * r.width,
			Width:        r.width,
			Count:        acc.count,
			Viewers:      acc.viewers / n,
			Quality:      acc.quality / n,
			DemandBps:    acc.demand / n,
			ReservedMbps: acc.reservedMbps / n,
			CostUSD:      acc.costUSD,
		})
	}
	return out
}
