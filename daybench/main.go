// Command daybench is the repository's benchmark: it runs one simulated
// CloudMedia day per workload through the public simulate.Scenario.Run
// entry point and prints its metrics, the last line as one JSON object.
//
// With -trace 0 it runs the day untraced, repeatedly, for -seconds, and
// reports the end-to-end metrics (medians over the runs). With -trace 1 it
// runs one untraced reference day, then a traced serial day with spans
// recorded around the program's public seams, replays the recorded inputs
// into the layers no seam reaches, and reports the per-layer metrics. The
// spans are written once, as JSON lines, when the traced day ends, to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
//
// Usage, from the repository root (daybench/run.sh builds and runs it):
//
//	bash daybench/run.sh --workload fluid-100m-day --seed 42 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"cloudmedia/pkg/simulate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) add(name string, value float64, unit string) {
	r.order = append(r.order, name)
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// judge counts one day as attempted, and as failed when it has problems
// or its report differs from want, the reference day's (nil for the
// reference itself).
func (r *result) judge(label string, d dayResult, want *simulate.Report, log io.Writer) {
	r.Attempted++
	if want != nil && d.report != nil && !reflect.DeepEqual(d.report, want) {
		d.problems = append(d.problems, "report differs from the reference day's")
	}
	if len(d.problems) > 0 {
		r.Failed++
		fmt.Fprintf(log, "%s failed: %v\n", label, d.problems)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fluid-100m-day, event-paper-day, or control-minute-day")
	seed := fs.Int64("seed", 42, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 40, "how long to keep running untraced days (at least three run)")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced day")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "daybench:", err)
		return 2
	}
	var res *result
	switch *traced {
	case 0:
		res, err = measure(w, *seed, time.Duration(*secs*float64(time.Second)), stderr)
	case 1:
		spans := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		res, err = traceDay(w, *seed, spans, stderr)
	default:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(stderr, "daybench:", err)
		return 1
	}
	for _, n := range res.order {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "daybench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

const (
	// minDays is the fewest untraced days a measurement runs, so its
	// medians never rest on one or two samples.
	minDays = 3
	// minSetups is the fewest set-up samples behind setup_s; set-up
	// probes top up the days' own samples.
	minSetups = 11
)

// measure runs untraced days until the budget is spent and reports the
// end-to-end metrics as medians over them. The first day is the memory
// day: it measures the exact live-heap peak and is the reference every
// later day's report must equal; the days after it are timed.
//
// A day is timed in host CPU seconds, not wall seconds: on a shared host
// the wall time of one day swings by a fifth between quiet and busy
// periods that outlast a whole invocation, while the CPU time the
// process itself spends, which excludes time the host gives to others,
// varies half as much. Wall time stays visible per layer
// (trace.untraced_day_s). For the same reason timed days run serially:
// a worker pool's idle spinning adds CPU time that depends on the host's
// timing, not on the work.
func measure(w dayWorkload, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	sc, err := w.build(seed, 1)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first set-up of a process pays one-off costs a user
	// pays once, not on every run.
	if _, err := probeSetup(sc); err != nil {
		return nil, err
	}
	res := newResult()
	start := time.Now()
	memory := runDay(sc, hooks{}, true)
	res.judge("memory day", memory, nil, log)
	setups := []float64{memory.setup.Seconds()}
	var cpus, allocs []float64
	for len(cpus) < minDays || time.Since(start) < budget {
		d := runDay(sc, hooks{}, false)
		res.judge(fmt.Sprintf("day %d", res.Attempted), d, memory.report, log)
		cpus = append(cpus, d.cpu.Seconds())
		setups = append(setups, d.setup.Seconds())
		allocs = append(allocs, float64(d.allocBytes)/1e6)
	}
	for len(setups) < minSetups {
		s, err := probeSetup(sc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	res.add("sim_day_cpu_s", median(cpus), "s")
	res.add("setup_s", median(setups), "s")
	res.add("alloc_mb", median(allocs), "MB")
	res.add("peak_heap_mb", float64(memory.peakLive)/1e6, "MB")
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "%s seed %d: %d timed days, CPU %v s; %d set-ups\n", w.name, seed, len(cpus), cpus, len(setups))
	return res, nil
}
