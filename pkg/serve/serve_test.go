package serve_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudmedia/pkg/serve"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

func testScenario(t *testing.T, fidelity simulate.Fidelity) simulate.Scenario {
	t.Helper()
	sc := simulate.Default(simulate.CloudAssisted, 1)
	sc.Hours = 3
	sc.Fidelity = fidelity
	sc.Serve.Clock = simulate.ClockSimulated
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// The pacing guarantee: a paced run's interval records are identical to
// the same scenario's batch Run, on both engines, because the pacer only
// delays the engines. Run under the simulated clock so the test is fast
// and deterministic.
func TestServeMatchesBatchRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fidelity simulate.Fidelity
	}{
		{"event", simulate.FidelityEvent},
		{"fluid", simulate.FidelityFluid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(t, tc.fidelity)
			batch, err := sc.Run(context.Background(), simulate.KeepHistory())
			if err != nil {
				t.Fatal(err)
			}
			live, err := serve.Run(context.Background(), sc,
				serve.WithRunOptions(simulate.KeepHistory()))
			if err != nil {
				t.Fatal(err)
			}
			if len(live.Records) == 0 {
				t.Fatal("live run produced no interval records")
			}
			if !reflect.DeepEqual(batch.Records, live.Records) {
				t.Fatal("paced interval records differ from batch Run")
			}
			if !reflect.DeepEqual(batch.Snapshots, live.Snapshots) {
				t.Fatal("paced snapshots differ from batch Run")
			}
			if batch.Bill != live.Bill {
				t.Fatalf("bills differ: batch %+v, live %+v", batch.Bill, live.Bill)
			}
			if live.AchievedTimeScale <= 0 {
				t.Fatalf("AchievedTimeScale = %v", live.AchievedTimeScale)
			}
			if len(live.Timeline) == 0 {
				t.Fatal("no aggregated timeline")
			}
		})
	}
}

// The same identity must hold under a real clock at high compression:
// the scale changes only the wall-clock schedule, never the decisions.
func TestServeRealClockSameDecisions(t *testing.T) {
	sc := testScenario(t, simulate.FidelityFluid)
	batch, err := sc.Run(context.Background(), simulate.KeepHistory())
	if err != nil {
		t.Fatal(err)
	}
	sc.Serve.Clock = simulate.ClockReal
	sc.Serve.TimeScale = 100000 // 3 sim-hours ≈ 108ms of pacing
	live, err := serve.Run(context.Background(), sc,
		serve.WithRunOptions(simulate.KeepHistory()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Records, live.Records) {
		t.Fatal("real-clock interval records differ from batch Run")
	}
	if live.RealSeconds <= 0 {
		t.Fatalf("RealSeconds = %v", live.RealSeconds)
	}
}

// The observability endpoint serves /metrics, /healthz, and /state while
// the run is in flight, and goes away after the run drains.
func TestServeHTTPDuringRun(t *testing.T) {
	sc := testScenario(t, simulate.FidelityFluid)
	sc.Hours = 6
	sc.Serve.Clock = simulate.ClockReal
	sc.Serve.TimeScale = 50000

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	type outcome struct {
		rep *serve.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := serve.Run(context.Background(), sc, serve.WithListener(ln))
		done <- outcome{rep, err}
	}()

	// Poll until the endpoint answers, then check all three routes.
	var metricsBody string
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == 200 {
				metricsBody = string(body)
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("metrics endpoint never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{"cloudmedia_up 1", "cloudmedia_time_scale 50000", "cloudmedia_cost_usd_total"} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// /healthz turns ready at the first control barrier.
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("/healthz = %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.rep.Addr != addr {
		t.Fatalf("report Addr = %q, want %q", out.rep.Addr, addr)
	}
	if out.rep.Intervals == 0 {
		t.Fatal("no provisioning rounds ran")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint still up after the run drained")
	}
}

// A scrape that lands before the first control barrier — here, while the
// t=0 bootstrap round is held open — already sees the run's static facts,
// and /healthz reports not-ready until the barrier passes.
func TestServeScrapeBeforeFirstBarrier(t *testing.T) {
	sc := testScenario(t, simulate.FidelityFluid)
	sc.Serve.Clock = simulate.ClockReal
	sc.Serve.TimeScale = 50000

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	inBootstrap, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	hold := simulate.OnInterval(func(rec simulate.IntervalRecord) {
		if rec.Time == 0 {
			close(inBootstrap)
			<-release
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := serve.Run(context.Background(), sc, serve.WithListener(ln), serve.WithRunOptions(hold))
		done <- err
	}()
	<-inBootstrap

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
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	channels := fmt.Sprintf("cloudmedia_channels %d", sc.Workload.Channels)
	for _, want := range []string{"cloudmedia_time_scale 50000", channels, "cloudmedia_ready 0", "cloudmedia_sim_seconds 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics before the first barrier missing %q", want)
		}
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || body != "starting\n" {
		t.Errorf("/healthz before the first barrier = %d %q, want 503 starting", code, body)
	}

	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Cancellation mid-run drains gracefully: partial report, context error,
// HTTP endpoint shut down. Exercised with concurrent scrapes so the
// race detector covers start/scrape/ingest/shutdown overlap.
func TestServeCancelDrains(t *testing.T) {
	sc := testScenario(t, simulate.FidelityFluid)
	sc.Hours = 1000 // far more than the test will allow to run
	sc.Serve.Clock = simulate.ClockReal
	sc.Serve.TimeScale = 20000

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())

	// A live feed running alongside the scrapes while the run is paced.
	feed, err := serve.NewLiveSource(3, 100)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		rep *serve.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := serve.Run(ctx, sc, serve.WithListener(ln))
		done <- outcome{rep, err}
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = feed.Ingest(float64(i), []float64{1, 2, 3})
		}
	}()

	time.Sleep(100 * time.Millisecond)
	cancel()
	out := <-done
	close(stop)
	wg.Wait()

	if out.err != context.Canceled {
		t.Fatalf("cancelled run error = %v, want context.Canceled", out.err)
	}
	if out.rep == nil {
		t.Fatal("cancelled run returned no report")
	}
	if out.rep.Hours >= sc.Hours {
		t.Fatalf("cancelled run claims %v h of %v h", out.rep.Hours, sc.Hours)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint still up after cancellation")
	}
}

// A live source wired as the scenario's demand seam drives a paced run
// end to end: the engines read whatever has been ingested so far.
func TestServeWithLiveSource(t *testing.T) {
	feed, err := serve.NewLiveSource(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load a flat demand profile covering the run.
	if err := feed.Ingest(0, []float64{0.3, 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := feed.Ingest(4*3600, []float64{0.3, 0.1}); err != nil {
		t.Fatal(err)
	}
	sc := simulate.Default(simulate.CloudAssisted, 1)
	sc.Hours = 2
	sc.Fidelity = simulate.FidelityFluid
	sc.Source = feed
	sc.Serve.Clock = simulate.ClockSimulated
	rep, err := serve.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intervals == 0 {
		t.Fatal("no provisioning rounds")
	}
	if rep.FinalUsers == 0 {
		t.Fatal("live-fed run attracted no viewers")
	}
}

// Serve-block validation surfaces through Run.
func TestServeValidation(t *testing.T) {
	sc := testScenario(t, simulate.FidelityFluid)
	sc.Serve.Clock = simulate.ClockMode(99)
	if _, err := serve.Run(context.Background(), sc); err == nil {
		t.Fatal("invalid clock mode accepted")
	}
	sc = testScenario(t, simulate.FidelityFluid)
	sc.Serve.TimeScale = -2
	if _, err := serve.Run(context.Background(), sc); err == nil {
		t.Fatal("negative time scale accepted")
	}
}

// A live feed replaying a trace decides exactly as the trace: preloaded
// with the trace's samples under an envelope at or above its peak, a
// LiveSource drives a fluid 12 h day to interval records identical to the
// Trace's own, for greedy (which reads the rates) and for oracle and
// staticpeak (which read MeanRate).
func TestLiveReplayDecidesAsTrace(t *testing.T) {
	base := simulate.Default(simulate.CloudAssisted, 1)
	tr, err := trace.PopularityDrift(3, 12, 900, 0.8, 1.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for c := range tr.NumChannels() {
		m, err := tr.MaxRate(c)
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, m)
	}
	for _, policy := range []simulate.Policy{simulate.Greedy{}, simulate.Oracle{}, simulate.StaticPeak{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			live, err := serve.NewLiveSource(tr.NumChannels(), peak)
			if err != nil {
				t.Fatal(err)
			}
			rates := make([]float64, tr.NumChannels())
			for i, at := range tr.Times {
				for c, row := range tr.Rates {
					rates[c] = row[i]
				}
				if err := live.Ingest(at, rates); err != nil {
					t.Fatal(err)
				}
			}
			if live.Clamped() != 0 || live.Dropped() != 0 {
				t.Fatalf("preload clamped %d and dropped %d samples", live.Clamped(), live.Dropped())
			}
			records := func(src simulate.Source) []simulate.IntervalRecord {
				t.Helper()
				sc := base
				sc.Hours = 12
				sc.Fidelity = simulate.FidelityFluid
				sc.Source = src
				sc.Policy = policy
				rep, err := sc.Run(context.Background(), simulate.KeepHistory())
				if err != nil {
					t.Fatal(err)
				}
				return rep.Records
			}
			want, got := records(tr), records(live)
			if len(want) == 0 {
				t.Fatal("trace run produced no interval records")
			}
			if !reflect.DeepEqual(got, want) {
				for i := range min(len(got), len(want)) {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("record %d (t=%v) differs: live %+v, trace %+v", i, want[i].Time, got[i], want[i])
					}
				}
				t.Fatalf("live replay has %d records, trace %d", len(got), len(want))
			}
		})
	}
}
