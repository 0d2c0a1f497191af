package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"cloudmedia/pkg/simulate"
)

// dayResult is one measured run of a workload's day.
type dayResult struct {
	report *simulate.Report
	// wall is the Run call; setup runs from Run entry to the first pacer
	// callback (stack assembly and the t=0 bootstrap provisioning).
	wall, setup time.Duration
	// cpu is the process's user+system CPU time during the run, all
	// threads (GC workers included); unlike wall it excludes time the host
	// took the CPU away.
	cpu        time.Duration
	allocBytes uint64  // heap bytes allocated during the run
	peakLive   uint64  // max live heap after a GC at any snapshot (livePeak runs only)
	gcCycles   uint64  // GC cycles completed during the run
	gcCPU      float64 // estimated GC CPU seconds during the run
	problems   []string
}

// hooks lets a caller observe a measured run; nil fields are skipped.
// begin fires immediately before Run is called, the others after the
// measurement's own callbacks.
type hooks struct {
	begin    func()
	pacer    func(simNow float64)
	interval func(simulate.IntervalRecord)
	snapshot func(simulate.Snapshot)
}

const (
	allocsMetric   = "/gc/heap/allocs:bytes"
	liveMetric     = "/gc/heap/live:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
)

func readRuntime() (allocs, cycles uint64, gcCPU float64) {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCyclesMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runDay runs the scenario once from a collected heap and measures it.
// With livePeak set, a GC runs at every snapshot before the live heap is
// read, so the peak is exact and repeats per seed; the GCs lengthen the
// day, so such a day's wall time is not a timing sample.
func runDay(sc simulate.Scenario, h hooks, livePeak bool) dayResult {
	runtime.GC()
	var res dayResult
	live := []metrics.Sample{{Name: liveMetric}}
	var start time.Time
	pacer := func(simNow float64) {
		if res.setup == 0 {
			res.setup = time.Since(start)
		}
		if h.pacer != nil {
			h.pacer(simNow)
		}
	}
	snapshot := func(s simulate.Snapshot) {
		if livePeak {
			runtime.GC()
			metrics.Read(live)
			res.peakLive = max(res.peakLive, live[0].Value.Uint64())
		}
		if !(s.Quality >= 0 && s.Quality <= 1) {
			res.problems = append(res.problems, fmt.Sprintf("quality %v at t=%vs outside [0,1]", s.Quality, s.Time))
		}
		if h.snapshot != nil {
			h.snapshot(s)
		}
	}
	opts := []simulate.RunOption{simulate.WithPacer(pacer), simulate.OnSnapshot(snapshot)}
	if h.interval != nil {
		opts = append(opts, simulate.OnInterval(h.interval))
	}
	allocs0, cycles0, gc0 := readRuntime()
	cpu0 := processCPU()
	if h.begin != nil {
		h.begin()
	}
	start = time.Now()
	rep, err := sc.Run(context.Background(), opts...)
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	allocs1, cycles1, gc1 := readRuntime()
	res.allocBytes, res.gcCycles, res.gcCPU = allocs1-allocs0, cycles1-cycles0, gc1-gc0
	res.report = rep
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("run: %v", err))
	} else {
		res.problems = append(res.problems, checkReport(sc, rep)...)
	}
	return res
}

// checkReport lists the ways a finished day's report is wrong.
func checkReport(sc simulate.Scenario, rep *simulate.Report) []string {
	var problems []string
	if rep.Hours != sc.Hours {
		problems = append(problems, fmt.Sprintf("covered %v h of %v h", rep.Hours, sc.Hours))
	}
	interval := sc.IntervalSeconds
	if interval == 0 {
		interval = 3600
	}
	if want := int(math.Round(sc.Hours*3600/interval)) + 1; rep.Intervals != want {
		problems = append(problems, fmt.Sprintf("%d provisioning rounds, want %d", rep.Intervals, want))
	}
	b := rep.Bill
	tiers := b.ReservedUSD + b.OnDemandUSD + b.SpotUSD + b.UpfrontUSD + b.StorageUSD + b.TransferUSD
	if math.Abs(b.TotalUSD()-tiers) > 1e-9*math.Max(1, math.Abs(tiers)) || math.IsNaN(tiers) {
		problems = append(problems, fmt.Sprintf("bill total $%v != $%v summed over tiers", b.TotalUSD(), tiers))
	}
	if !(rep.MeanQuality >= 0 && rep.MeanQuality <= 1) {
		problems = append(problems, fmt.Sprintf("mean quality %v outside [0,1]", rep.MeanQuality))
	}
	return problems
}

// probeSetup times set-up alone: the run is cancelled at its first pacer
// callback, so it stops after its first sampling step.
func probeSetup(sc simulate.Scenario) (time.Duration, error) {
	runtime.GC()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var setup time.Duration
	start := time.Now()
	_, err := sc.Run(ctx, simulate.WithPacer(func(float64) {
		if setup == 0 {
			setup = time.Since(start)
			cancel()
		}
	}))
	if setup == 0 || !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up probe ended without reaching a barrier: %v", err)
	}
	return setup, nil
}
