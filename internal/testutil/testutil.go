// Package testutil holds the shared scenario-building helpers behind the
// engine-layer test suites. Before it existed, every package's tests
// (core, fluid, geo, p2p, …) hand-rolled the same trio — a small
// queueing.Config, a flattened workload, a viewing transfer matrix — with
// slightly drifting constants; this package is the single source of that
// boilerplate. Helpers return plain values the caller may tweak, so a
// test that needs a non-default VM bandwidth overrides one field instead
// of forking the whole builder.
//
// The package sits below the stack builder: it may import the engine
// layers (sim, cloud, queueing, viewing, workload) but never
// internal/stack, internal/geo or internal/experiments, so their own test
// files can use it without an import cycle. (internal/sim's tests cannot:
// they live in package sim, which testutil imports.) Full stacks come
// from stack.Build; Stack below is the controller-less piece that core's
// in-package tests need, since they cannot import internal/stack.
package testutil

import (
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// ChannelConfig returns the standard small test channel shape: the
// paper's 50 KB/s playback rate and 0.7 first-chunk entry over the given
// chunk count and duration, served by default-bandwidth VMs. Tests tweak
// the returned value for anything else (SlotsPerVM, VMBandwidth, …).
func ChannelConfig(chunks int, chunkSeconds float64) queueing.Config {
	return queueing.Config{
		Chunks:          chunks,
		PlaybackRate:    50e3,
		ChunkSeconds:    chunkSeconds,
		VMBandwidth:     cloud.DefaultVMBandwidth,
		EntryFirstChunk: 0.7,
	}
}

// FlatWorkload returns a steady workload for deterministic assertions:
// the default parameters flattened to a constant multiplier (base level
// 1, no flash crowds) at the given channel count, aggregate arrival
// rate, and mean VCR-jump interval.
func FlatWorkload(channels int, ratePerSecond, jumpMeanSeconds float64) workload.Params {
	wl := workload.Default()
	wl.Channels = channels
	wl.BaseArrivalRate = ratePerSecond
	wl.BaseLevel = 1
	wl.FlashCrowds = nil
	wl.JumpMeanSeconds = jumpMeanSeconds
	return wl
}

// Sequential returns the pure sequential-viewing transfer matrix,
// failing the test on a bad shape.
func Sequential(tb testing.TB, chunks int, cont float64) queueing.TransferMatrix {
	tb.Helper()
	p, err := viewing.Sequential(chunks, cont)
	if err != nil {
		tb.Fatalf("testutil: Sequential(%d, %v): %v", chunks, cont, err)
	}
	return p
}

// SequentialWithJumps returns the sequential-plus-VCR-jumps transfer
// matrix, failing the test on a bad shape.
func SequentialWithJumps(tb testing.TB, chunks int, cont, jump float64) queueing.TransferMatrix {
	tb.Helper()
	p, err := viewing.SequentialWithJumps(chunks, cont, jump)
	if err != nil {
		tb.Fatalf("testutil: SequentialWithJumps(%d, %v, %v): %v", chunks, cont, jump, err)
	}
	return p
}

// Stack assembles the engine-layer system under test — simulator on the
// given config and a default-catalog cloud built with opts — failing the
// test on any construction error. Controllers are the one piece left to
// the caller: every test picks its own core.Options.
func Stack(tb testing.TB, cfg sim.Config, opts ...cloud.Option) (*sim.Simulator, *cloud.Cloud) {
	tb.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatalf("testutil: sim.New: %v", err)
	}
	cl, err := cloud.New(cloud.DefaultVMClusters(), cloud.DefaultNFSClusters(), opts...)
	if err != nil {
		tb.Fatalf("testutil: cloud.New: %v", err)
	}
	return s, cl
}
