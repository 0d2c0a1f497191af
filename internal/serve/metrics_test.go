package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/core"
	"cloudmedia/internal/provision"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/stack"
)

// hourlyRun is the static run the store tests observe: hourly rounds,
// 1e6 bytes/s per VM.
func hourlyRun() stack.Spec {
	return stack.Spec{IntervalSeconds: 3600, Channel: queueing.Config{VMBandwidth: 1e6}}
}

// newHourlyMetrics is a store that has observed hourlyRun.
func newHourlyMetrics() *Metrics {
	m := NewMetrics()
	m.ObserveRun(1, hourlyRun())
	return m
}

func sampleInterval() core.IntervalRecord {
	return core.IntervalRecord{
		Time:             3600,
		ArrivalRates:     []float64{1.5, 2.5},
		DemandPerChannel: []float64{1e6, 2e6},
		TotalDemand:      3e6,
		TotalPeerSupply:  5e5,
		VMPlan: provision.VMPlan{
			Allocations: []provision.VMAllocation{
				{Channel: 0, Chunk: 0, Cluster: "east", VMs: 1},
				{Channel: 1, Chunk: 0, Cluster: "east", VMs: 1.5},
				{Channel: 1, Chunk: 0, Cluster: "west", VMs: 0.5},
			},
			VMsPerCluster: map[string]float64{"east": 2.5, "west": 0.5},
		},
		StoragePlan: provision.StoragePlan{GBPerCluster: map[string]float64{"east": 42}},
		DemandScale: 1,
		Cost: cloud.LedgerTotals{
			ReservedUSD: 2, OnDemandUSD: 1, UpfrontUSD: 0.5, StorageUSD: 0.25,
		},
	}
}

func TestMetricsStateAndProm(t *testing.T) {
	m := newHourlyMetrics()
	m.ObserveClock(3600, 150, 24)
	snap := core.Snapshot{
		Time: 3600, Quality: 0.97, PerChannelQuality: []float64{0.99, 0.95},
		Users: 120, PerChannelUsers: []int{80, 40},
		ReservedMbps: 800, CloudServedGB: 3.5,
	}
	m.ObserveSnapshot(snap)
	m.ObserveInterval(sampleInterval())
	m.ObservePlanLatency(0.002)

	st := m.State()
	if st.Viewers != 120 || st.Quality != 0.97 {
		t.Fatalf("snapshot not recorded: %+v", st)
	}
	if st.Plans != 1 || st.PlanErrors != 0 {
		t.Fatalf("interval counters: %+v", st)
	}
	if st.CostUSD != 3.75 {
		t.Fatalf("CostUSD = %v, want 3.75", st.CostUSD)
	}
	if st.CostRatePerHourUSD != 3.75 {
		t.Fatalf("cost rate = %v, want 3.75/h for a 1h interval", st.CostRatePerHourUSD)
	}
	if st.VMs["east"] != 3 || st.VMs["west"] != 1 {
		t.Fatalf("VM plan not recorded: %+v", st.VMs)
	}
	if st.TimeScale != 24 || st.RealSeconds != 150 {
		t.Fatalf("clock not recorded: %+v", st)
	}

	// A second errored interval accumulates cost and counts the failure.
	u := sampleInterval()
	u.Time = 7200
	u.PlanErr, u.StorageErr = "no plan", "no storage"
	m.ObserveInterval(u)
	st = m.State()
	if st.Plans != 2 || st.PlanErrors != 1 || st.StorageErrors != 1 {
		t.Fatalf("error counters: %+v", st)
	}
	if st.CostUSD != 7.5 {
		t.Fatalf("cumulative CostUSD = %v, want 7.5", st.CostUSD)
	}
	// A snapshot's timeline point carries the latest round's demand and
	// the cumulative bill.
	if p := m.ObserveSnapshot(snap); p.DemandBps != 3e6 || p.CostUSD != 7.5 || p.Viewers != 120 {
		t.Fatalf("timeline point = %+v, want demand 3e6 and cost 7.5", p)
	}

	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"cloudmedia_up 1",
		"cloudmedia_sim_seconds 7200",
		"cloudmedia_time_scale 24",
		"cloudmedia_viewers 120",
		`cloudmedia_channel_viewers{channel="0"} 80`,
		"cloudmedia_quality 0.97",
		`cloudmedia_arrival_rate{channel="1"} 2.5`,
		`cloudmedia_demand_bytes_per_second{channel="0"} 1e+06`,
		"cloudmedia_demand_bytes_per_second_total 3e+06",
		"cloudmedia_peer_supply_bytes_per_second 500000",
		`cloudmedia_provisioned_bytes_per_second{channel="1",chunk="0"} 2e+06`,
		`cloudmedia_vm_plan{cluster="east"} 3`,
		"cloudmedia_storage_gb 42",
		"cloudmedia_reserved_mbps 800",
		"cloudmedia_cloud_served_gigabytes 3.5",
		"cloudmedia_plan_rounds_total 2",
		"cloudmedia_plan_errors_total 1",
		"cloudmedia_storage_errors_total 1",
		"cloudmedia_plan_latency_seconds 0.002",
		`cloudmedia_cost_usd{tier="reserved"} 4`,
		"cloudmedia_cost_usd_total 7.5",
		"cloudmedia_cost_usd_per_hour 3.75",
		"# TYPE cloudmedia_cost_usd_total counter",
		"# HELP cloudmedia_viewers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// State copies must not alias the store.
	st = m.State()
	st.ArrivalRates[0] = -1
	st.VMs["east"] = -1
	if again := m.State(); again.ArrivalRates[0] == -1 || again.VMs["east"] == -1 {
		t.Fatal("State shares slices/maps with the store")
	}
}

// TestRoundErrorCounters: a round's demand-analysis failures and a
// rejected SLA submit each reach /state and their Prometheus counter, and
// accumulate across rounds.
func TestRoundErrorCounters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mark   func(*core.IntervalRecord)
		state  func(State) int
		metric string
		want   int // after two marked rounds
	}{
		{"demand", func(u *core.IntervalRecord) { u.DemandErrors = 3 }, func(st State) int { return st.DemandErrors }, "cloudmedia_demand_errors_total", 6},
		{"submit", func(u *core.IntervalRecord) { u.SubmitErr = "rejected" }, func(st State) int { return st.SubmitErrors }, "cloudmedia_submit_errors_total", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			m.ObserveInterval(sampleInterval())
			if got := tc.state(m.State()); got != 0 {
				t.Fatalf("clean round counted %d errors", got)
			}
			for range 2 {
				u := sampleInterval()
				tc.mark(&u)
				m.ObserveInterval(u)
			}
			if got := tc.state(m.State()); got != tc.want {
				t.Errorf("state counter = %d, want %d", got, tc.want)
			}
			var sb strings.Builder
			if err := m.WriteProm(&sb); err != nil {
				t.Fatal(err)
			}
			for _, line := range []string{"# TYPE " + tc.metric + " counter", tc.metric + " " + strconv.Itoa(tc.want)} {
				if !strings.Contains(sb.String(), line) {
					t.Errorf("exposition missing %q", line)
				}
			}
		})
	}
}

// TestCostTiersSumToBill: every ledger tier reaches /state and the
// cloudmedia_cost_usd rows, so the tier rows, the cumulative CostUSD and
// the per-hour rate all agree with LedgerTotals.TotalUSD — spot and
// transfer dollars included.
func TestCostTiersSumToBill(t *testing.T) {
	bill := cloud.LedgerTotals{OnDemandUSD: 2, SpotUSD: 5, TransferUSD: 1, SpotVMHours: 20, Interruptions: 1}
	m := newHourlyMetrics()
	m.ObserveInterval(core.IntervalRecord{Time: 3600, DemandScale: 1, Cost: bill})

	st := m.State()
	if st.CostUSD != bill.TotalUSD() || st.CostRatePerHourUSD != bill.TotalUSD() {
		t.Errorf("CostUSD = %v, rate = %v/h, want both %v", st.CostUSD, st.CostRatePerHourUSD, bill.TotalUSD())
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["cost_spot_usd"] != bill.SpotUSD || fields["cost_transfer_usd"] != bill.TransferUSD {
		t.Errorf("/state spot %v, transfer %v; want %v, %v",
			fields["cost_spot_usd"], fields["cost_transfer_usd"], bill.SpotUSD, bill.TransferUSD)
	}

	var sb strings.Builder
	if err := m.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	var tiers float64
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "cloudmedia_cost_usd{tier=")
		if !ok {
			continue
		}
		_, value, _ := strings.Cut(rest, " ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("tier row %q: %v", line, err)
		}
		tiers += v
	}
	if tiers != bill.TotalUSD() {
		t.Errorf("cloudmedia_cost_usd tier rows sum to %v, want %v", tiers, bill.TotalUSD())
	}
}

func TestRollingTimeline(t *testing.T) {
	r, err := NewRolling(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRolling(-1); err == nil {
		t.Fatal("negative bin width accepted")
	}
	for i := 0; i < 40; i++ {
		r.Add(Point{
			Sim: float64(i) * 50, Viewers: 10 + i, Quality: 1,
			DemandBps: 100, CostUSD: float64(i),
		})
	}
	// 40 points, 50s apart: the timeline covers the whole run in
	// 40*50/100 = 20 bins, 2 points each.
	bins := r.Timeline()
	if len(bins) != 20 {
		t.Fatalf("timeline has %d bins, want 20", len(bins))
	}
	if bins[0].Start != 0 || bins[0].Count != 2 {
		t.Fatalf("first bin: %+v", bins[0])
	}
	if bins[0].Viewers != 10.5 {
		t.Fatalf("first bin mean viewers = %v, want 10.5", bins[0].Viewers)
	}
	if last := bins[len(bins)-1]; last.CostUSD != 39 {
		t.Fatalf("last bin cost = %v, want the last cumulative value 39", last.CostUSD)
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].Start <= bins[i-1].Start {
			t.Fatal("timeline not ordered")
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	m := NewMetrics()
	m.ObserveInterval(sampleInterval())
	r, err := NewRolling(0)
	if err != nil {
		t.Fatal(err)
	}
	r.Add(Point{Sim: 100, Viewers: 7, Quality: 1})
	srv, err := ListenHTTP("127.0.0.1:0", NewHandler(m, r))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Start() // idempotent
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Not ready until the first control barrier observes the clock.
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || body != "starting\n" {
		t.Fatalf("/healthz before the first barrier = %d %q", code, body)
	}
	m.ObserveClock(100, 1, 100)
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cloudmedia_up 1") {
		t.Fatalf("/metrics = %d, missing cloudmedia_up", code)
	}
	code, body := get("/state")
	if code != 200 {
		t.Fatalf("/state = %d", code)
	}
	var doc struct {
		State
		Timeline []Bin `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/state not JSON: %v", err)
	}
	if doc.Plans != 1 || len(doc.Timeline) != 1 || doc.Timeline[0].Viewers != 7 {
		t.Fatalf("/state contents: %+v", doc)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still reachable after Shutdown")
	}
}

func TestHTTPShutdownWithoutStart(t *testing.T) {
	srv, err := ListenHTTP("127.0.0.1:0", NewHandler(NewMetrics(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTimedPolicy(t *testing.T) {
	var observed int
	var last float64
	inner := provision.Lookahead{K: 2, Hysteresis: 1}
	p := TimedPolicy(inner, func(s float64) { observed++; last = s })
	if p.Name() != "lookahead" || p.Lookahead() != 2 || p.Oracle() {
		t.Fatalf("wrapper does not forward policy identity: %s/%d/%v", p.Name(), p.Lookahead(), p.Oracle())
	}
	if v, ok := p.(interface{ Validate() error }); !ok {
		t.Fatal("wrapper lost Validate")
	} else if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TimedPolicy(provision.Lookahead{K: -1}, nil)
	if err := bad.(interface{ Validate() error }).Validate(); err == nil {
		t.Fatal("wrapper swallowed inner Validate error")
	}

	planner := p.NewPlanner()
	req := provision.PlanRequest{
		IntervalSeconds: 3600,
		Demands:         []provision.ChunkDemand{{Channel: 0, Chunk: 0, Demand: 1e6}},
		VMBandwidth:     1e6,
		VMClusters:      []cloud.VMClusterSpec{{Name: "c", Utility: 1, MaxVMs: 10, PricePerHour: 1}},
		VMBudgetPerHour: 100,
	}
	res, err := planner.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMPlan.TotalVMs() == 0 {
		t.Fatal("wrapped planner produced an empty plan")
	}
	if observed != 1 || last < 0 {
		t.Fatalf("latency not observed: count=%d last=%v", observed, last)
	}

	// FutureDemander forwarding: a planner without the refinement reports
	// true; StaticPeak's own answer is forwarded through the wrapper.
	if fd := planner.(provision.FutureDemander); !fd.NeedsFuture() {
		t.Fatal("default NeedsFuture should be true")
	}
	sp := TimedPolicy(provision.StaticPeak{}, nil).NewPlanner()
	if !sp.(provision.FutureDemander).NeedsFuture() {
		t.Fatal("StaticPeak needs future before its first plan")
	}
	if _, err := sp.Plan(req); err != nil {
		t.Fatal(err)
	}
	if sp.(provision.FutureDemander).NeedsFuture() {
		t.Fatal("StaticPeak still wants future after planning")
	}
}

// Scrapers run concurrently with the simulation's observers; every
// exported read must deep-copy under the lock (the exposition path once
// aliased the live slice backings — caught by the race detector).
func TestMetricsConcurrentObserveAndScrape(t *testing.T) {
	m := NewMetrics()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			u := sampleInterval()
			u.Time = float64(i) * 60
			m.ObserveInterval(u)
			m.ObserveSnapshot(core.Snapshot{
				Time: u.Time, Users: i, PerChannelUsers: []int{i, i + 1},
				Quality: 1, PerChannelQuality: []float64{1, 0.9},
			})
			m.ObserveClock(u.Time, u.Time/100, 100)
			m.ObservePlanLatency(1e-4)
		}
	}()
	for i := 0; i < 100; i++ {
		if err := m.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		_ = m.State()
	}
	<-done
}
