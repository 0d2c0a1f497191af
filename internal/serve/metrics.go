package serve

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/stack"
)

// State is the /state JSON snapshot: the latest of everything the store
// tracks, plus the cumulative counters.
type State struct {
	SimSeconds  float64 `json:"sim_seconds"`
	RealSeconds float64 `json:"real_seconds"`
	TimeScale   float64 `json:"time_scale"`
	Channels    int     `json:"channels"`
	// Ready turns true at the run's first control barrier, once stack
	// assembly and the t=0 bootstrap round are done.
	Ready bool `json:"ready"`

	Viewers           int       `json:"viewers"`
	ViewersPerChannel []int     `json:"viewers_per_channel,omitempty"`
	Quality           float64   `json:"quality"`
	QualityPerChannel []float64 `json:"quality_per_channel,omitempty"`
	ReservedMbps      float64   `json:"reserved_mbps"`
	CloudServedGB     float64   `json:"cloud_served_gb"`

	ArrivalRates     []float64      `json:"arrival_rates,omitempty"`
	DemandPerChannel []float64      `json:"demand_bytes_per_second,omitempty"`
	TotalDemand      float64        `json:"total_demand_bytes_per_second"`
	PeerSupply       float64        `json:"peer_supply_bytes_per_second"`
	VMs              map[string]int `json:"vm_plan,omitempty"`
	StorageGB        float64        `json:"storage_gb"`
	DemandScale      float64        `json:"demand_scale"`

	Plans              int     `json:"plan_rounds"`
	DemandErrors       int     `json:"demand_errors"`
	PlanErrors         int     `json:"plan_errors"`
	StorageErrors      int     `json:"storage_errors"`
	SubmitErrors       int     `json:"submit_errors"`
	LastPlanLatency    float64 `json:"last_plan_latency_seconds"`
	TotalPlanLatency   float64 `json:"total_plan_latency_seconds"`
	CostUSD            float64 `json:"cost_usd"`
	CostReservedUSD    float64 `json:"cost_reserved_usd"`
	CostOnDemandUSD    float64 `json:"cost_on_demand_usd"`
	CostSpotUSD        float64 `json:"cost_spot_usd"`
	CostUpfrontUSD     float64 `json:"cost_upfront_usd"`
	CostStorageUSD     float64 `json:"cost_storage_usd"`
	CostTransferUSD    float64 `json:"cost_transfer_usd"`
	CostRatePerHourUSD float64 `json:"cost_usd_per_hour"`
}

// Metrics is the live run's metric store: updated from the run loop's
// callbacks, read concurrently by the HTTP handlers. Everything is
// plain last-value gauges plus a few monotonic counters — deliberately
// no time series, which live in Rolling.
type Metrics struct {
	mu sync.Mutex
	st State

	interval    float64 // the run's provisioning period, seconds
	vmBandwidth float64 // bytes/s one VM serves, sizing the plan's chunks
	capacity    map[[2]int]float64
	cost        cloud.LedgerTotals
}

// NewMetrics builds an empty store.
func NewMetrics() *Metrics {
	return &Metrics{st: State{DemandScale: 1, Quality: 1}}
}

// ObserveRun records the static facts of a resolved run — the configured
// time scale, the channel count, and the provisioning period and VM
// bandwidth its records are read with — so a scrape that lands before the
// first control barrier already reports them. Simulated time starts at 0.
func (m *Metrics) ObserveRun(timeScale float64, sc stack.Spec) {
	channels := sc.Workload.Channels
	if sc.Source != nil {
		channels = sc.Source.NumChannels()
	}
	m.mu.Lock()
	m.st.TimeScale = timeScale
	m.st.Channels = channels
	m.interval = sc.IntervalSeconds
	m.vmBandwidth = sc.Channel.VMBandwidth
	m.mu.Unlock()
}

// ObserveClock records the pacing state at a control barrier: simulated
// seconds, real seconds since the clock started, and the configured time
// scale. The first call marks the run ready.
func (m *Metrics) ObserveClock(simSeconds, realSeconds, timeScale float64) {
	m.mu.Lock()
	m.st.SimSeconds = simSeconds
	m.st.RealSeconds = realSeconds
	m.st.TimeScale = timeScale
	m.st.Ready = true
	m.mu.Unlock()
}

// Ready reports whether the run has reached its first control barrier.
func (m *Metrics) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.Ready
}

// ObserveSnapshot records one periodic measurement and returns its
// timeline point: the snapshot with the latest round's total demand and
// the cumulative bill.
func (m *Metrics) ObserveSnapshot(s core.Snapshot) Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.Time > m.st.SimSeconds {
		m.st.SimSeconds = s.Time
	}
	m.st.Viewers = s.Users
	m.st.ViewersPerChannel = append(m.st.ViewersPerChannel[:0], s.PerChannelUsers...)
	m.st.Quality = s.Quality
	m.st.QualityPerChannel = append(m.st.QualityPerChannel[:0], s.PerChannelQuality...)
	m.st.ReservedMbps = s.ReservedMbps
	m.st.CloudServedGB = s.CloudServedGB
	return Point{Sim: s.Time, Viewers: s.Users, Quality: s.Quality, DemandBps: m.st.TotalDemand,
		ReservedMbps: s.ReservedMbps, CostUSD: m.st.CostUSD}
}

// ObserveInterval records one provisioning round, accumulating the
// interval's bill into the cumulative cost and deriving the cost ticker
// rate ($/h over the interval that just ended).
func (m *Metrics) ObserveInterval(rec core.IntervalRecord) {
	var storageGB float64
	for _, gb := range rec.StoragePlan.GBPerCluster {
		storageGB += gb
	}
	m.mu.Lock()
	if rec.Time > m.st.SimSeconds {
		m.st.SimSeconds = rec.Time
	}
	m.st.ArrivalRates = append(m.st.ArrivalRates[:0], rec.ArrivalRates...)
	m.st.DemandPerChannel = append(m.st.DemandPerChannel[:0], rec.DemandPerChannel...)
	m.st.TotalDemand = rec.TotalDemand
	m.st.PeerSupply = rec.TotalPeerSupply
	m.st.VMs = rec.VMPlan.RentalVMs()
	m.capacity = rec.VMPlan.CapacityPerChunk(m.vmBandwidth)
	m.st.StorageGB = storageGB
	m.st.DemandScale = rec.DemandScale
	m.st.Plans++
	m.st.DemandErrors += rec.DemandErrors
	if rec.PlanErr != "" {
		m.st.PlanErrors++
	}
	if rec.StorageErr != "" {
		m.st.StorageErrors++
	}
	if rec.SubmitErr != "" {
		m.st.SubmitErrors++
	}
	m.cost.Add(rec.Cost)
	m.st.CostUSD = m.cost.TotalUSD()
	m.st.CostReservedUSD = m.cost.ReservedUSD
	m.st.CostOnDemandUSD = m.cost.OnDemandUSD
	m.st.CostSpotUSD = m.cost.SpotUSD
	m.st.CostUpfrontUSD = m.cost.UpfrontUSD
	m.st.CostStorageUSD = m.cost.StorageUSD
	m.st.CostTransferUSD = m.cost.TransferUSD
	if m.interval > 0 {
		m.st.CostRatePerHourUSD = rec.Cost.TotalUSD() / (m.interval / 3600)
	}
	m.mu.Unlock()
}

// ObservePlanLatency records one policy Plan call's wall-clock duration.
func (m *Metrics) ObservePlanLatency(seconds float64) {
	m.mu.Lock()
	m.st.LastPlanLatency = seconds
	m.st.TotalPlanLatency += seconds
	m.mu.Unlock()
}

// State returns a copy of the current state (slices and maps included).
func (m *Metrics) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stateLocked()
}

// stateLocked deep-copies the state; the caller must hold m.mu. The
// copy matters: observers refill the slice fields in place, so a
// shallow copy would alias live backing arrays.
func (m *Metrics) stateLocked() State {
	st := m.st
	st.ViewersPerChannel = append([]int(nil), m.st.ViewersPerChannel...)
	st.QualityPerChannel = append([]float64(nil), m.st.QualityPerChannel...)
	st.ArrivalRates = append([]float64(nil), m.st.ArrivalRates...)
	st.DemandPerChannel = append([]float64(nil), m.st.DemandPerChannel...)
	if m.st.VMs != nil {
		st.VMs = make(map[string]int, len(m.st.VMs))
		for k, v := range m.st.VMs {
			st.VMs[k] = v
		}
	}
	return st
}

// WriteProm writes the store in the Prometheus text exposition format
// (version 0.0.4), hand-rolled so the module stays dependency-free.
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	st := m.stateLocked()
	caps := m.capacity
	m.mu.Unlock()

	p := promWriter{w: w}
	p.gauge("cloudmedia_up", "Whether the serve control plane is running.", 1)
	p.gauge("cloudmedia_ready", "Whether the run has reached its first control barrier.", boolGauge(st.Ready))
	p.gauge("cloudmedia_channels", "Channels in the served scenario.", float64(st.Channels))
	p.gauge("cloudmedia_sim_seconds", "Simulated time reached by the paced run.", st.SimSeconds)
	p.gauge("cloudmedia_real_seconds", "Wall-clock seconds since the pacing clock started.", st.RealSeconds)
	p.gauge("cloudmedia_time_scale", "Configured time compression factor (simulated/real).", st.TimeScale)
	p.gauge("cloudmedia_viewers", "Concurrent viewers across all channels.", float64(st.Viewers))
	p.head("cloudmedia_channel_viewers", "Concurrent viewers per channel.", "gauge")
	for c, n := range st.ViewersPerChannel {
		p.row("cloudmedia_channel_viewers", channelLabel(c), float64(n))
	}
	p.gauge("cloudmedia_quality", "Fraction of viewers with smooth playback in the trailing window.", st.Quality)
	p.head("cloudmedia_channel_quality", "Smooth-playback fraction per channel.", "gauge")
	for c, q := range st.QualityPerChannel {
		p.row("cloudmedia_channel_quality", channelLabel(c), q)
	}
	p.head("cloudmedia_arrival_rate", "Estimated per-channel arrival rate, users/s.", "gauge")
	for c, r := range st.ArrivalRates {
		p.row("cloudmedia_arrival_rate", channelLabel(c), r)
	}
	p.head("cloudmedia_demand_bytes_per_second", "Derived per-channel cloud demand.", "gauge")
	for c, d := range st.DemandPerChannel {
		p.row("cloudmedia_demand_bytes_per_second", channelLabel(c), d)
	}
	p.gauge("cloudmedia_demand_bytes_per_second_total", "Derived cloud demand across channels.", st.TotalDemand)
	p.gauge("cloudmedia_peer_supply_bytes_per_second", "Analytic peer supply across channels.", st.PeerSupply)
	p.head("cloudmedia_provisioned_bytes_per_second", "Provisioned cloud capacity per chunk.", "gauge")
	for _, k := range slices.SortedFunc(maps.Keys(caps), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	}) {
		p.row("cloudmedia_provisioned_bytes_per_second",
			fmt.Sprintf(`channel="%d",chunk="%d"`, k[0], k[1]), caps[k])
	}
	p.head("cloudmedia_vm_plan", "VMs rented per cluster in the applied plan.", "gauge")
	for _, name := range slices.Sorted(maps.Keys(st.VMs)) {
		p.row("cloudmedia_vm_plan", fmt.Sprintf(`cluster=%q`, name), float64(st.VMs[name]))
	}
	p.gauge("cloudmedia_storage_gb", "NFS storage rented in the applied plan.", st.StorageGB)
	p.gauge("cloudmedia_reserved_mbps", "Cloud capacity provisioned at the last sample.", st.ReservedMbps)
	p.gauge("cloudmedia_cloud_served_gigabytes", "Cumulative cloud traffic delivered.", st.CloudServedGB)
	p.gauge("cloudmedia_demand_scale", "Demand scale applied by the last plan (<1 = budget infeasible).", st.DemandScale)
	p.counter("cloudmedia_plan_rounds_total", "Provisioning rounds completed.", float64(st.Plans))
	p.counter("cloudmedia_demand_errors_total", "Channel-rounds whose demand analysis failed and planned zero demand.", float64(st.DemandErrors))
	p.counter("cloudmedia_plan_errors_total", "Provisioning rounds whose VM planning failed.", float64(st.PlanErrors))
	p.counter("cloudmedia_storage_errors_total", "Provisioning rounds whose storage planning failed.", float64(st.StorageErrors))
	p.counter("cloudmedia_submit_errors_total", "Provisioning rounds whose SLA request the broker rejected.", float64(st.SubmitErrors))
	p.gauge("cloudmedia_plan_latency_seconds", "Wall-clock duration of the last policy Plan call.", st.LastPlanLatency)
	p.counter("cloudmedia_plan_latency_seconds_total", "Cumulative wall-clock time in policy Plan calls.", st.TotalPlanLatency)
	p.head("cloudmedia_cost_usd", "Cumulative ledger bill by pricing tier.", "counter")
	p.row("cloudmedia_cost_usd", `tier="reserved"`, st.CostReservedUSD)
	p.row("cloudmedia_cost_usd", `tier="on_demand"`, st.CostOnDemandUSD)
	p.row("cloudmedia_cost_usd", `tier="spot"`, st.CostSpotUSD)
	p.row("cloudmedia_cost_usd", `tier="upfront"`, st.CostUpfrontUSD)
	p.row("cloudmedia_cost_usd", `tier="storage"`, st.CostStorageUSD)
	p.row("cloudmedia_cost_usd", `tier="transfer"`, st.CostTransferUSD)
	p.counter("cloudmedia_cost_usd_total", "Cumulative ledger bill, all tiers.", st.CostUSD)
	p.gauge("cloudmedia_cost_usd_per_hour", "Ledger accrual rate over the last provisioning interval.", st.CostRatePerHourUSD)
	return p.err
}

// promWriter accumulates exposition lines, remembering the first write
// error so call sites stay linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) head(name, help, kind string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (p *promWriter) row(name, labels string, v float64) {
	p.printf("%s{%s} %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p *promWriter) scalar(name, help, kind string, v float64) {
	p.head(name, help, kind)
	p.printf("%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p *promWriter) gauge(name, help string, v float64)   { p.scalar(name, help, "gauge", v) }
func (p *promWriter) counter(name, help string, v float64) { p.scalar(name, help, "counter", v) }

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func channelLabel(c int) string { return fmt.Sprintf(`channel="%d"`, c) }
