package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"cloudmedia"
	"cloudmedia/pkg/serve"
	"cloudmedia/pkg/simulate"
	"cloudmedia/pkg/trace"
)

// runServe implements the serve subcommand: a wall-clock-paced live run
// of one scenario with streaming metrics. SIGINT/SIGTERM drain the run
// gracefully and still print the final report.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cloudmedia serve", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "cloud-assisted", "architecture to serve: client-server, p2p, or cloud-assisted")
		fidelity  = fs.String("fidelity", "event", "simulation engine: event or fluid")
		policy    = fs.String("policy", "greedy", policyHelp)
		pricing   = fs.String("pricing", "on-demand", pricingHelp)
		hours     = fs.Float64("hours", 24, "simulated duration, hours")
		scale     = fs.Float64("scale", 2, "workload scale (parametric workload only)")
		seed      = fs.Int64("seed", 42, "random seed")
		traceIn   = fs.String("trace", "", "demand trace file (.csv or .json) to replay at compressed speed")
		stdin     = fs.Bool("stdin", false, "ingest live demand from stdin in the trace-CSV line protocol (time_s,rate0,…)")
		channels  = fs.Int("channels", 6, "channel count for -stdin ingestion")
		maxRate   = fs.Float64("max-rate", 10, "per-channel arrival-rate ceiling (users/s) for -stdin ingestion")
		workers   = fs.Int("workers", 0, "engine worker pool size for parallel channel stepping; 0 = GOMAXPROCS (results are identical for any value)")
		timeScale = fs.Float64("time-scale", 1, "time compression: simulated seconds per real second (24 replays a day in an hour; 0 means 1)")
		clockSpec = fs.String("clock", "real", "pacing clock: real (wall-clock) or simulated (full speed)")
		metrics   = fs.String("metrics", "", "address for the /metrics, /healthz, /state endpoint, e.g. :9090 (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	clock, err := simulate.ParseClock(*clockSpec)
	if err != nil {
		return err
	}
	if *traceIn != "" && *stdin {
		return fmt.Errorf("-trace and -stdin are mutually exclusive")
	}

	opts := []cloudmedia.Option{
		cloudmedia.WithFidelity(f),
		cloudmedia.WithPolicy(pol),
		cloudmedia.WithPricing(pri),
		cloudmedia.WithHours(*hours),
		cloudmedia.WithSeed(*seed),
		cloudmedia.WithWorkers(*workers),
		cloudmedia.WithClock(clock),
		cloudmedia.WithTimeScale(*timeScale),
	}
	if *metrics != "" {
		opts = append(opts, cloudmedia.WithMetricsAddr(*metrics))
	}

	// The demand side: a replayed trace, a live stdin feed, or the scaled
	// parametric workload.
	var feed *serve.LiveSource
	switch {
	case *traceIn != "":
		tr, err := trace.ReadFile(*traceIn)
		if err != nil {
			return err
		}
		opts = append(opts, cloudmedia.WithTrace(tr))
	case *stdin:
		feed, err = serve.NewLiveSource(*channels, *maxRate)
		if err != nil {
			return err
		}
		opts = append(opts, cloudmedia.WithWorkloadSource(feed))
	default:
		opts = append(opts, cloudmedia.WithScale(*scale))
	}

	sc, err := cloudmedia.NewScenario(m, opts...)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if feed != nil {
		if clock == simulate.ClockSimulated {
			// Full-speed runs finish faster than any live feed: drain stdin
			// first so the run sees the complete series (batch semantics).
			if err := feed.Feed(ctx, os.Stdin); err != nil {
				return fmt.Errorf("stdin feed: %w", err)
			}
		} else {
			go func() {
				if err := feed.Feed(ctx, os.Stdin); err != nil && ctx.Err() == nil {
					fmt.Fprintln(os.Stderr, "cloudmedia serve: stdin feed:", err)
				}
			}()
		}
	}

	if *metrics != "" {
		fmt.Fprintf(out, "serving %s at %gx on %s (SIGINT drains)\n", m, *timeScale, *metrics)
	} else {
		fmt.Fprintf(out, "serving %s at %gx (SIGINT drains)\n", m, *timeScale)
	}
	rep, err := serve.Run(ctx, sc)
	if err != nil && err != context.Canceled {
		return err
	}
	if err == context.Canceled {
		fmt.Fprintln(out, "interrupted: drained gracefully")
	}
	printServeReport(out, rep, feed)
	return nil
}

func printServeReport(out io.Writer, rep *serve.Report, feed *serve.LiveSource) {
	if rep == nil {
		return
	}
	fmt.Fprintf(out, "served %.2f sim-hours in %.1f real-seconds (achieved %.0fx)\n",
		rep.Hours, rep.RealSeconds, rep.AchievedTimeScale)
	fmt.Fprintf(out, "intervals %d  mean quality %.4f  mean reserved %.1f Mbps  final viewers %d\n",
		rep.Intervals, rep.MeanQuality, rep.MeanReservedMbps, rep.FinalUsers)
	fmt.Fprintf(out, "bill $%.2f (vm $%.2f + storage $%.2f; reserved $%.2f, on-demand $%.2f, upfront $%.2f)\n",
		rep.Bill.TotalUSD(), rep.VMCostTotal, rep.StorageCostTotal,
		rep.Bill.ReservedUSD, rep.Bill.OnDemandUSD, rep.Bill.UpfrontUSD)
	if feed != nil {
		fmt.Fprintf(out, "live feed: %d samples retained, %d clamped, %d dropped\n",
			feed.Samples(), feed.Clamped(), feed.Dropped())
	}
}
