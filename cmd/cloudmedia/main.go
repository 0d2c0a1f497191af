// Command cloudmedia runs the CloudMedia reproduction experiments: every
// table and figure of the paper's evaluation section, at a configurable
// scale and architecture.
//
// Usage:
//
//	cloudmedia -exp fig4                          # one experiment
//	cloudmedia -exp all -hours 12                 # the whole suite, shorter horizon
//	cloudmedia -list                              # show available experiment IDs
//	cloudmedia -exp timeline -mode cloud-assisted # hourly view of a chosen architecture
//	cloudmedia -exp fig10 -scale 10 -csv          # paper-scale run, CSV output
//
// The figure experiments pin the architectures they are defined over
// (fig4 always compares client-server against P2P, and so on); -mode
// drives the mode-sensitive entries, most usefully "timeline".
//
// The sweep subcommand runs whole scenario families concurrently on a
// worker pool (cloudmedia/pkg/sweep) and emits machine-readable results:
//
//	cloudmedia sweep -axis mode=cs,p2p,cloudmedia -axis vm-budget=50,100,200 \
//	    -workers 4 -hours 6 -output sweep.csv
//	cloudmedia sweep -axis uplink-ratio=0.9,1.0,1.2 -aggregate # Fig. 11 family
//
// The trace subcommand generates synthetic demand traces or records a
// run's realized arrivals into a replayable one; -trace feeds a trace
// file back into any experiment:
//
//	cloudmedia trace gen -kind weekweekend -days 14 -o fortnight.csv
//	cloudmedia trace record -mode cloud-assisted -hours 24 -o day.csv
//	cloudmedia -exp timeline -trace day.csv
//
// The serve subcommand runs one scenario as a live control plane, paced
// against the wall clock with a time-compression factor, with demand
// replayed from a trace or streamed over stdin and a /metrics + /state
// observability endpoint; SIGINT drains gracefully:
//
//	cloudmedia serve -trace day.csv -time-scale 24 -metrics :9090
//	cloudmedia serve -stdin -channels 6 -time-scale 3600 < live.csv
//
// The command is a thin flag wrapper around the public cloudmedia/pkg/paper,
// cloudmedia/pkg/sweep, cloudmedia/pkg/trace, and cloudmedia/pkg/serve
// packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cloudmedia/pkg/paper"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

// The -policy and -pricing usage strings, shared by the experiment
// runner and the serve subcommand: every spelling ParsePolicy and
// ParsePricing accept.
const (
	policyHelp  = "provisioning policy: greedy, lookahead, lookahead-hedged (or hedged), oracle, or staticpeak (or static-peak)"
	pricingHelp = "cloud billing plan: on-demand (or ondemand), reserved, or spot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudmedia:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "sweep" {
		return runSweep(args[1:])
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:])
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("cloudmedia", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment ID to run (or 'all')")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		mode     = fs.String("mode", "client-server", "architecture under test: client-server, p2p, or cloud-assisted")
		fidelity = fs.String("fidelity", "event", "simulation engine: event (per-viewer) or fluid (aggregate cohorts, million-viewer scale)")
		policy   = fs.String("policy", "greedy", policyHelp)
		pricing  = fs.String("pricing", "on-demand", pricingHelp)
		faultIn  = fs.String("fault", "", "fault schedule: a preset ("+strings.Join(simulate.FaultPresetNames(), ", ")+") or events like outage@19.5h+2h,preempt@20h:0.6,degrade@18h+3h:0.5")
		scale    = fs.Float64("scale", 2, "workload scale (1 ≈ 250 concurrent users, 10 ≈ paper scale); ignored with -trace")
		traceIn  = fs.String("trace", "", "demand trace file (.csv or .json) replacing the parametric workload; see 'cloudmedia trace'")
		hours    = fs.Float64("hours", 24, "simulated duration per run, hours")
		seed     = fs.Int64("seed", 42, "random seed")
		workers  = fs.Int("workers", 0, "engine worker pool size for parallel channel stepping; 0 = GOMAXPROCS (results are identical for any value)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		asJSON   = fs.Bool("json", false, "emit JSON instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(paper.IDs(), "\n"))
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	m, err := simulate.ParseMode(*mode)
	if err != nil {
		return err
	}
	f, err := simulate.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}
	pol, err := simulate.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	pri, err := simulate.ParsePricing(*pricing)
	if err != nil {
		return err
	}
	flt, err := simulate.ParseFault(*faultIn)
	if err != nil {
		return err
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	ids := []string{*exp}
	if *exp == "all" {
		ids = paper.IDs()
	}
	sc := simulate.Default(m, *scale)
	sc.Fidelity, sc.Policy, sc.Pricing, sc.Faults = f, pol, pri, flt
	sc.Hours, sc.Seed, sc.Workers = *hours, *seed, *workers
	if *traceIn != "" {
		if sc.Source, err = trace.ReadFile(*traceIn); err != nil {
			return err
		}
	}
	for _, id := range ids {
		res, err := paper.Run(id, sc)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *asJSON {
			if err := renderJSON(res); err != nil {
				return err
			}
			continue
		}
		if err := render(res, *csv); err != nil {
			return err
		}
	}
	return nil
}

// renderJSON emits the result as one JSON document per experiment.
func renderJSON(res *paper.Result) error {
	type jsonTable struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	doc := struct {
		ID      string             `json:"id"`
		Summary map[string]float64 `json:"summary"`
		Tables  []jsonTable        `json:"tables"`
	}{ID: res.ID, Summary: res.Summary}
	for _, tbl := range res.Tables {
		doc.Tables = append(doc.Tables, jsonTable{Title: tbl.Title, Headers: tbl.Headers, Rows: tbl.Rows})
	}
	return encodeJSON(os.Stdout, doc)
}

// encodeJSON writes v as indented JSON.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func render(res *paper.Result, csv bool) error {
	for _, tbl := range res.Tables {
		var err error
		if csv {
			err = tbl.RenderCSV(os.Stdout)
		} else {
			err = tbl.Render(os.Stdout)
		}
		if err != nil {
			return err
		}
		fmt.Println()
	}
	if len(res.Summary) > 0 {
		keys := make([]string, 0, len(res.Summary))
		for k := range res.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("# %s summary\n", res.ID)
		for _, k := range keys {
			fmt.Printf("%-28s %.4g\n", k, res.Summary[k])
		}
		fmt.Println()
	}
	return nil
}
