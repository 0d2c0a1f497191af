package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudmedia/pkg/simulate"
)

// TestServeSimulatedClock drives the subcommand end to end under the
// deterministic clock: generate a trace, serve it, check the report.
func TestServeSimulatedClock(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "demand.csv")
	if err := run([]string{"trace", "gen", "-kind", "diurnal", "-channels", "3", "-hours", "6", "-step", "1800", "-o", tr}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	var sb strings.Builder
	err := runServe([]string{
		"-trace", tr, "-hours", "3", "-fidelity", "fluid",
		"-clock", "sim", "-time-scale", "24",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"serving cloud-assisted at 24x", "served 3.00 sim-hours", "intervals", "bill $"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

// TestServeRealClockMetrics runs a heavily compressed real-clock serve
// with the metrics endpoint up, scraping it while the run is in flight.
func TestServeRealClockMetrics(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "demand.csv")
	if err := run([]string{"trace", "gen", "-kind", "diurnal", "-channels", "3", "-hours", "8", "-step", "1800", "-o", tr}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	const addr = "127.0.0.1:39414"
	done := make(chan error, 1)
	var sb strings.Builder
	go func() {
		done <- runServe([]string{
			"-trace", tr, "-hours", "6", "-fidelity", "fluid",
			"-clock", "real", "-time-scale", "40000", "-metrics", addr,
		}, &sb)
	}()
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for body == "" {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				body = string(b)
			}
		}
		if time.Now().After(deadline) {
			select {
			case err := <-done:
				t.Fatalf("serve exited before metrics came up: %v\n%s", err, sb.String())
			default:
				t.Fatal("metrics endpoint never came up")
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(body, "cloudmedia_up 1") {
		t.Errorf("/metrics missing cloudmedia_up:\n%.400s", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "served 6.00 sim-hours") {
		t.Errorf("final report missing:\n%s", sb.String())
	}
}

// TestServeStdinFeed pipes the line protocol through -stdin.
func TestServeStdinFeed(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = orig }()
	go func() {
		_, _ = w.WriteString("time_s,ch0,ch1\n0,0.3,0.1\n14400,0.3,0.1\n")
		w.Close()
	}()
	var sb strings.Builder
	err = runServe([]string{
		"-stdin", "-channels", "2", "-max-rate", "5",
		"-hours", "2", "-fidelity", "fluid", "-clock", "sim",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live feed: 2 samples") {
		t.Errorf("feed stats missing:\n%s", sb.String())
	}
}

func TestServeErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad clock":        {"-clock", "lunar"},
		"bad mode":         {"-mode", "edge"},
		"bad policy":       {"-policy", "vibes"},
		"trace and stdin":  {"-trace", "x.csv", "-stdin"},
		"bad time scale":   {"-time-scale", "-2"},
		"missing trace":    {"-trace", "/nonexistent/t.csv"},
		"bad flag":         {"-nope"},
		"bad stdin params": {"-stdin", "-channels", "0"},
	} {
		if err := runServe(args, io.Discard); err == nil {
			t.Errorf("%s: accepted %v", name, args)
		}
	}
}

// usage captures what a flag set prints for -h.
func usage(t *testing.T, call func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = w
	callErr := call()
	os.Stderr = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if callErr == nil {
		t.Error("-h: want flag.ErrHelp")
	}
	return string(out)
}

// TestUsageListsEverySpelling: the -policy and -pricing help of both the
// experiment runner and serve names every spelling the parsers accept.
func TestUsageListsEverySpelling(t *testing.T) {
	policies := []string{"greedy", "lookahead", "lookahead-hedged", "hedged", "oracle", "staticpeak", "static-peak"}
	pricings := []string{"on-demand", "ondemand", "reserved", "spot"}
	for _, p := range policies {
		if _, err := simulate.ParsePolicy(p); err != nil {
			t.Errorf("policy %q: %v", p, err)
		}
	}
	for _, p := range pricings {
		if _, err := simulate.ParsePricing(p); err != nil {
			t.Errorf("pricing %q: %v", p, err)
		}
	}
	for name, text := range map[string]string{
		"cloudmedia": usage(t, func() error { return run([]string{"-h"}) }),
		"serve":      usage(t, func() error { return runServe([]string{"-h"}, io.Discard) }),
	} {
		for _, spelling := range append(policies, pricings...) {
			if !strings.Contains(text, spelling) {
				t.Errorf("%s usage omits %q", name, spelling)
			}
		}
	}
}
