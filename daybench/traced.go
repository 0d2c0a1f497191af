package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cloudmedia/pkg/simulate"
)

// tracedDay turns the run's seam callbacks into spans. The spans it can
// see from outside the program:
//
//   - setup: Run entry to the first pacer callback;
//   - <engine>.run_until: the first pacer callback after a snapshot to the
//     next snapshot — one sampling step of the engine, rounds included;
//   - core.round: the round's first forecast to its OnInterval record;
//   - provision.plan: one Planner.Plan call;
//
// plus two call aggregates, workload.source (every demand query) and
// core.predict (every forecast), under whichever span was open.
type tracedDay struct {
	tr      *Tracer
	engine  string // span name of the engine's sampling steps
	setup   int    // the set-up span
	step    int    // the open engine span, -1 between steps
	round   int    // the open round span, -1 between rounds
	roundID int    // the current provisioning round, 0 = bootstrap
	running bool   // set-up has ended

	barriers      []float64 // simulated time of every pacer callback
	records       []simulate.IntervalRecord
	snapshotTimes []float64
	viewerHours   float64
	forecasts     []forecast
	problems      []string
}

func newTracedDay(tr *Tracer, engine string) *tracedDay {
	return &tracedDay{tr: tr, engine: engine + ".run_until", setup: -1, step: -1, round: -1}
}

// instrument wraps the scenario's demand source, predictor and policy.
// Unset seams are wrapped around the defaults the run would use.
func (d *tracedDay) instrument(sc simulate.Scenario) simulate.Scenario {
	src := sc.Source
	if src == nil {
		src = sc.Workload.Source()
	}
	sc.Source = &tracedSource{inner: src, day: d}
	var pred simulate.Predictor = simulate.LastInterval{}
	if sc.Predictor != nil {
		pred = sc.Predictor
	}
	sc.Predictor = tracedPredictor{inner: pred, day: d}
	var pol simulate.Policy = simulate.Greedy{}
	if sc.Policy != nil {
		pol = sc.Policy
	}
	sc.Policy = tracedPolicy{inner: pol, day: d}
	return sc
}

func (d *tracedDay) hooks(samplePeriod float64) hooks {
	return hooks{
		begin: func() { d.setup = d.tr.Begin("setup", 0) },
		pacer: func(simNow float64) {
			if !d.running {
				d.tr.End(d.setup)
				d.running = true
			}
			if d.step < 0 {
				d.step = d.tr.Begin(d.engine, -1)
			}
			d.barriers = append(d.barriers, simNow)
		},
		interval: func(rec simulate.IntervalRecord) {
			if d.round >= 0 {
				d.tr.End(d.round)
				d.round = -1
			}
			if len(d.records) != d.roundID {
				d.problems = append(d.problems, fmt.Sprintf("record %d arrived in traced round %d", len(d.records), d.roundID))
			}
			d.records = append(d.records, rec)
		},
		snapshot: func(s simulate.Snapshot) {
			if d.step >= 0 {
				d.tr.End(d.step)
				d.step = -1
			}
			d.snapshotTimes = append(d.snapshotTimes, s.Time)
			d.viewerHours += float64(s.Users) * samplePeriod / 3600
		},
	}
}

// beforePredict opens a round at its first forecast. Set-up forecasts
// (a lookahead policy's bootstrap) belong to round 0 inside set-up.
func (d *tracedDay) beforePredict() {
	if d.running && d.round < 0 {
		d.roundID++
		d.round = d.tr.Begin("core.round", d.roundID)
	}
}

func (d *tracedDay) predicted(v float64, start time.Duration) {
	d.tr.Observe("core.predict", d.tr.Now()-start)
	d.forecasts = append(d.forecasts, forecast{round: d.roundID, value: v})
}

func (d *tracedDay) sourceCall(start time.Duration) {
	d.tr.Observe("workload.source", d.tr.Now()-start)
}

// fluidStep is the fluid engine's Euler step: 1 s, clamped to a quarter of
// the chunk playback time and of the mean jump interval.
func fluidStep(sc simulate.Scenario) float64 {
	return min(1, sc.Channel.ChunkSeconds/4, sc.Workload.JumpMeanSeconds/4)
}

// fluidSteps counts the Euler steps the fluid engine takes to reach every
// barrier in turn, repeating its step loop's arithmetic.
func fluidSteps(barriers []float64, step float64) int {
	n, now := 0, 0.0
	for _, t := range barriers {
		for now < t {
			dt := step
			if now+dt > t {
				dt = t - now
			}
			now += dt
			n++
		}
		now = t
	}
	return n
}

// traceDay runs the untraced reference day(s), then the traced serial day
// and the replays, and reports the per-layer metrics.
func traceDay(w dayWorkload, seed int64, spansPath string, log io.Writer) (*result, error) {
	sc, err := w.build(seed, w.workers())
	if err != nil {
		return nil, err
	}
	res := newResult()
	ref := runDay(sc, hooks{}, false)
	res.judge("untraced day", ref, nil, log)
	base, serialSc := ref, sc
	if w.workers() != 1 {
		if serialSc, err = w.build(seed, 1); err != nil {
			return nil, err
		}
		base = runDay(serialSc, hooks{}, false)
		res.judge("untraced serial day", base, ref.report, log)
	}

	engine := "sim"
	if sc.Fidelity == simulate.FidelityFluid {
		engine = "fluid"
	}
	tr := NewTracer()
	day := newTracedDay(tr, engine)
	traced := runDay(day.instrument(serialSc), day.hooks(sc.SampleSeconds), false)

	rp, err := newReplayer(sc)
	if err != nil {
		return nil, err
	}
	traced.problems = append(traced.problems, day.problems...)
	if len(day.records) == 0 {
		traced.problems = append(traced.problems, "no provisioning rounds recorded")
	} else if err := rp.checkBootstrap(day.records[0]); err != nil {
		traced.problems = append(traced.problems, err.Error())
	}
	lookahead := 0
	if sc.Policy != nil {
		lookahead = sc.Policy.Lookahead()
	}
	sizing, err := rp.replaySizing(day.records, day.forecasts, lookahead)
	if err != nil {
		traced.problems = append(traced.problems, err.Error())
	}
	cl, err := replayCloud(sc, day.records, day.snapshotTimes)
	if err != nil {
		traced.problems = append(traced.problems, err.Error())
	}
	res.judge("traced day", traced, ref.report, log)

	if err := writeSpans(tr, spansPath); err != nil {
		return nil, err
	}
	addLayerMetrics(res, layerInputs{
		sc: sc, day: day, ref: ref, base: base, traced: traced, sizing: sizing, cloud: cl,
	}, log)
	res.Correct = res.Failed == 0
	return res, nil
}

func writeSpans(tr *Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

type layerInputs struct {
	sc                simulate.Scenario
	day               *tracedDay
	ref, base, traced dayResult
	sizing            sizingStats
	cloud             cloudStats
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addLayerMetrics derives every per-layer metric from the traced day, its
// reference days and the replays. Layers a workload never reaches report
// zero.
func addLayerMetrics(res *result, in layerInputs, log io.Writer) {
	tr, day, sc := in.day.tr, in.day, in.sc
	self := tr.SelfTimes()
	var engineSelf, roundBusy, coreSelf, planBusy, setup time.Duration
	var roundMs, planMs []float64
	for i, s := range tr.Spans() {
		switch s.Name {
		case day.engine:
			engineSelf += self[i]
		case "core.round":
			roundBusy += s.Duration()
			coreSelf += self[i]
			roundMs = append(roundMs, millis(s.Duration()))
		case "provision.plan":
			planBusy += s.Duration()
			planMs = append(planMs, millis(s.Duration()))
		case "setup":
			setup = s.Duration()
		}
	}
	srcCalls, srcBusy := tr.CallTotals("workload.source")
	predCalls, predBusy := tr.CallTotals("core.predict")
	channels, chunks := 0, sc.Channel.Chunks
	if len(day.records) > 0 {
		channels = len(day.records[0].ArrivalRates)
	}
	var scaled, planErrs, storageErrs, zeroDemand int
	for _, rec := range day.records {
		for ch, rate := range rec.ArrivalRates {
			if rate > 0 && rec.DemandPerChannel[ch] == 0 {
				zeroDemand++
			}
		}
		if rec.DemandScale < 1 {
			scaled++
		}
		if rec.PlanErr != "" {
			planErrs++
		}
		if rec.StorageErr != "" {
			storageErrs++
		}
	}
	interruptions := 0
	if in.traced.report != nil {
		interruptions = in.traced.report.Bill.Interruptions
	}

	res.add("workload.calls", float64(srcCalls), "count")
	res.add("workload.busy_s", seconds(srcBusy), "s")

	var fluidSelf, fluidBarriers, chunkSteps, nsPerChunkStep float64
	var simSelf, simBarriers, viewerHours, usPerViewerHour float64
	if day.engine == "fluid.run_until" {
		fluidSelf, fluidBarriers = seconds(engineSelf), float64(len(day.barriers))
		chunkSteps = float64(fluidSteps(day.barriers, fluidStep(sc)) * channels * chunks)
		if chunkSteps > 0 {
			nsPerChunkStep = float64(engineSelf) / chunkSteps
		}
	} else {
		simSelf, simBarriers, viewerHours = seconds(engineSelf), float64(len(day.barriers)), day.viewerHours
		if viewerHours > 0 {
			usPerViewerHour = float64(engineSelf) / float64(time.Microsecond) / viewerHours
		}
	}
	res.add("fluid.self_s", fluidSelf, "s")
	res.add("fluid.barriers", fluidBarriers, "count")
	res.add("fluid.chunk_steps", chunkSteps, "count_computed")
	res.add("fluid.ns_per_chunk_step", nsPerChunkStep, "ns")
	res.add("sim.self_s", simSelf, "s")
	res.add("sim.barriers", simBarriers, "count")
	res.add("sim.viewer_hours", viewerHours, "viewer-h")
	res.add("sim.us_per_viewer_hour", usPerViewerHour, "us/viewer-h")

	roundP50 := median(roundMs)
	roundTail, roundTailPct := tail(roundMs, 99)
	roundMax, _ := tail(roundMs, 100)
	res.add("core.rounds", float64(len(roundMs)), "count")
	res.add("core.round_busy_s", seconds(roundBusy), "s")
	res.add("core.round_p50_ms", roundP50, "ms")
	res.add("core.round_tail_ms", roundTail, "ms")
	res.add("core.round_tail_pct", roundTailPct, "%")
	res.add("core.round_max_ms", roundMax, "ms")
	res.add("core.self_s", seconds(coreSelf), "s")
	res.add("core.predict_calls", float64(predCalls), "count")
	res.add("core.predict_busy_s", seconds(predBusy), "s")

	solveTail, solveTailPct := tail(in.sizing.solveUs, 99)
	res.add("queueing.solves", float64(in.sizing.solves), "count")
	res.add("queueing.solve_busy_s", seconds(in.sizing.solveBusy), "s")
	res.add("queueing.solve_tail_us", solveTail, "us")
	res.add("queueing.solve_tail_pct", solveTailPct, "%")
	res.add("queueing.servers_total", float64(in.sizing.servers), "count")
	res.add("queueing.solve_errors", float64(in.sizing.solveErrors), "count")
	res.add("p2p.solves", float64(in.sizing.p2pSolves), "count")
	res.add("p2p.solve_busy_s", seconds(in.sizing.p2pBusy), "s")
	res.add("p2p.solve_errors", float64(in.sizing.p2pErrors), "count")

	planTail, planTailPct := tail(planMs, 99)
	scaledShare := 0.0
	if len(planMs) > 0 {
		scaledShare = float64(scaled) / float64(len(planMs))
	}
	res.add("provision.plans", float64(len(planMs)), "count")
	res.add("provision.plan_busy_s", seconds(planBusy), "s")
	res.add("provision.plan_tail_ms", planTail, "ms")
	res.add("provision.plan_tail_pct", planTailPct, "%")
	res.add("provision.scaled_share", scaledShare, "ratio")
	res.add("provision.plan_errors", float64(planErrs), "count")
	res.add("provision.storage_errors", float64(storageErrs), "count")

	res.add("cloud.submits", float64(in.cloud.submits), "count")
	res.add("cloud.apply_busy_s", seconds(in.cloud.busy), "s")
	res.add("cloud.submit_errors", float64(in.cloud.errors), "count")
	res.add("cloud.interruptions", float64(interruptions), "count")

	res.add("runtime.gc_cycles", float64(in.ref.gcCycles), "count")
	res.add("runtime.gc_cpu_s", in.ref.gcCPU, "s")

	tracedDay := in.traced.wall
	unattributed := tracedDay - tr.RootTime()
	res.add("trace.untraced_day_s", seconds(in.ref.wall), "s")
	res.add("trace.pool_speedup", seconds(in.base.wall)/seconds(in.ref.wall), "ratio")
	res.add("trace.traced_day_s", seconds(tracedDay), "s")
	res.add("trace.setup_s", seconds(setup), "s")
	res.add("trace.overhead_s", seconds(tracedDay-in.base.wall), "s")
	res.add("trace.unattributed_s", seconds(unattributed), "s")

	fmt.Fprintf(log, "traced day %.3fs (untraced serial %.3fs): setup %.3fs, %s self %.3fs, workload %.3fs, core self %.3fs, predict %.3fs, plan %.3fs; unattributed %.4fs\n",
		seconds(tracedDay), seconds(in.base.wall), seconds(setup), day.engine, seconds(engineSelf),
		seconds(srcBusy), seconds(coreSelf), seconds(predBusy), seconds(planBusy), seconds(unattributed))
	replayed := in.sizing.solveBusy + in.sizing.p2pBusy - in.sizing.bootBusy + in.cloud.busy
	fmt.Fprintf(log, "live rounds: %d channel-rounds with arrivals were sized to zero demand; replay: %d sizing and %d peer-supply failures\n",
		zeroDemand, in.sizing.solveErrors, in.sizing.p2pErrors)
	fmt.Fprintf(log, "replay (prior matrix, rounds after t=0): sizing+peer+cloud %.3fs against live core self %.3fs; bootstrap sizing %.3fs inside set-up %.3fs\n",
		seconds(replayed), seconds(coreSelf), seconds(in.sizing.bootBusy), seconds(setup))
}
