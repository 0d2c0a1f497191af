package fluid

import (
	"fmt"
	"math"
	"testing"

	"cloudmedia/internal/cloud"
	"cloudmedia/internal/queueing"
	"cloudmedia/internal/sim"
	"cloudmedia/internal/viewing"
	"cloudmedia/internal/workload"
)

// peakChannels and peakHour place BenchmarkFluidStep at the 100M-viewer
// day's evening peak: 48 channels under the default diurnal workload,
// whose largest flash crowd peaks at hour 20.
const (
	peakChannels = 48
	peakHour     = 20
)

// hundredMConfig is the engine-facing half of the 100M-viewer fluid day
// (stack.DefaultSpec with the 34M viewer scale and 48 channels) on a
// channel of the given chunks: rarest-first peer allocation, serial
// stepping, and the stack's jump prior for the channel (90% per-chunk
// retention, a jump probability of T₀ over the 225 s mean jump
// interval). 8 chunks of 75 s is the paper's channel. The base rate is
// stack.BaseRateForViewers(34e6), 0.6 users/s per 250 viewers.
func hundredMConfig(tb testing.TB, chunks int, chunkSeconds float64) sim.Config {
	tb.Helper()
	wl := workload.Default()
	wl.Channels = peakChannels
	wl.ZipfExponent = 0.8
	wl.BaseArrivalRate = 0.6 * 34e6 / 250
	wl.JumpMeanSeconds = 225
	transfer, err := viewing.SequentialWithJumps(chunks, 0.9, chunkSeconds/wl.JumpMeanSeconds)
	if err != nil {
		tb.Fatal(err)
	}
	return sim.Config{
		Mode: sim.P2P,
		Channel: queueing.Config{
			Chunks:          chunks,
			PlaybackRate:    50e3,
			ChunkSeconds:    chunkSeconds,
			VMBandwidth:     cloud.DefaultVMBandwidth,
			EntryFirstChunk: 0.7,
			SlotsPerVM:      5,
		},
		Workload: wl,
		Transfer: transfer,
		Workers:  1,
	}
}

// provisionHalfFlow sets every chunk's cloud capacity to half the byte
// flow its Jackson traffic rate needs at time t, leaving the rest to the
// peers — a stand-in for the controller's hourly plan. The rates come
// from the controller's solver; its server bound is lifted so that no
// peak chunk fails the sizing the rates do not need.
func provisionHalfFlow(tb testing.TB, b *Backend, t float64) {
	tb.Helper()
	cfg := b.cfg
	var solver queueing.Solver
	for c := 0; c < b.C; c++ {
		rate, err := b.cfg.Source.Rate(c, t)
		if err != nil {
			tb.Fatal(err)
		}
		eq, err := solver.Solve(cfg.Channel, cfg.Transfer, rate, math.MaxInt32)
		if err != nil {
			tb.Fatal(err)
		}
		for j, l := range eq.ArrivalRates {
			if err := b.SetCloudCapacity(c, j, 0.5*l*cfg.Channel.ChunkBytes()); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// kernelState is the part of a Backend one batch of steps mutates.
type kernelState struct {
	playing, waiting, owners, peerCap []float64
	cloudBytes, smooth                []float64
	arrivals                          []float64
	completed, jumped                 [][]float64
	order                             []int
}

func saveKernelState(b *Backend) *kernelState {
	s := &kernelState{
		playing:    append([]float64(nil), b.playing...),
		waiting:    append([]float64(nil), b.waiting...),
		owners:     append([]float64(nil), b.owners...),
		peerCap:    append([]float64(nil), b.peerCap...),
		cloudBytes: append([]float64(nil), b.cloudBytesServed...),
		smooth:     append([]float64(nil), b.smooth...),
		order:      append([]int(nil), b.order...),
	}
	for _, f := range b.feeds {
		s.arrivals = append(s.arrivals, f.arrivals)
		s.completed = append(s.completed, append([]float64(nil), f.completed...))
		s.jumped = append(s.jumped, append([]float64(nil), f.jumped...))
	}
	return s
}

func (s *kernelState) restore(b *Backend) {
	copy(b.playing, s.playing)
	copy(b.waiting, s.waiting)
	copy(b.owners, s.owners)
	copy(b.peerCap, s.peerCap)
	copy(b.cloudBytesServed, s.cloudBytes)
	copy(b.smooth, s.smooth)
	copy(b.order, s.order)
	for c, f := range b.feeds {
		f.arrivals = s.arrivals[c]
		copy(f.completed, s.completed[c])
		copy(f.jumped, s.jumped[c])
	}
}

// BenchmarkFluidStep is the fluid kernel alone: one batch (batchSeconds
// of steps, 90 at the engine's own 10 s step), of every channel of the
// 100M-viewer day, starting from its evening-peak state, with the batch's
// arrival rates resolved beforehand so the demand plane is not timed.
// J=8 is the day's own channel of 8×75 s chunks; J=16 the 16×40 s channel
// of TestStepConvergenceAcrossScenarios, so the cost per chunk-step shows
// at two chunk counts. The state comes from integrating the day up to
// the peak with capacity re-provisioned hourly from t = 0, and is
// restored before every batch so each iteration does the same work.
// ns/chunk-step divides the time by steps × channels × chunks, the unit
// daybench's fluid.ns_per_chunk_step reports; ns/sim-s divides it by the
// simulated seconds the batch covers, so a longer step's higher cost per
// step and lower cost per simulated day both show.
func BenchmarkFluidStep(b *testing.B) {
	for _, ch := range []struct {
		chunks       int
		chunkSeconds float64
	}{{8, 75}, {16, 40}} {
		b.Run(fmt.Sprintf("J=%d", ch.chunks), func(b *testing.B) {
			benchmarkFluidStep(b, hundredMConfig(b, ch.chunks, ch.chunkSeconds))
		})
	}
}

func benchmarkFluidStep(b *testing.B, cfg sim.Config) {
	be, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < peakHour; h++ {
		provisionHalfFlow(b, be, float64(h)*3600)
		be.RunUntil(float64(h+1) * 3600)
	}
	n := be.batchSteps
	for s := 0; s < n; s++ {
		be.times[s] = be.Now() + float64(s)*be.step
	}
	be.full = newStep(be.step, be.cfg.Channel, be.cfg.Workload.JumpMeanSeconds)
	be.last = be.full
	be.fillRates(n)
	peak := saveKernelState(be)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		peak.restore(be)
		b.StartTimer()
		be.runBatch(n)
	}
	steps := float64(b.N) * float64(n)
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/(steps*float64(be.C*be.J)), "ns/chunk-step")
	b.ReportMetric(ns/(steps*be.step), "ns/sim-s")
}
