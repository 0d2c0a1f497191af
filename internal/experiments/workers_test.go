package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// ensureParallelHost raises GOMAXPROCS so multi-worker configurations
// resolve to real pools even on single-core hosts (sim.EffectiveWorkers
// clamps to GOMAXPROCS at construction time), restoring it on cleanup.
func ensureParallelHost(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWorkersInvariantAcrossStack runs the paper's default scenario
// through the full stack (controller, broker, ledger) at several worker
// counts and requires the complete measurement record — every snapshot,
// hourly, interval record, and the bill — to match exactly, in both
// streaming modes on both engines. Workers now shards the engines AND the
// controller's per-channel snapshot/derive/forecast planes, so this pins
// the plumbing end to end: the knob changes throughput, never results.
func TestWorkersInvariantAcrossStack(t *testing.T) {
	ensureParallelHost(t, 8)
	for _, mode := range []modes.Mode{modes.ClientServer, modes.CloudAssisted} {
		for _, fid := range []modes.Fidelity{modes.FidelityFluid, modes.FidelityEvent} {
			run := func(workers int) *Timeline {
				sc := stack.DefaultSpec(mode, 1)
				sc.Fidelity = fid
				sc.Hours = 4
				sc.Workers = workers
				tl, err := RunTimeline(sc)
				if err != nil {
					t.Fatalf("%v/%v workers=%d: %v", mode, fid, workers, err)
				}
				return tl
			}
			serial := run(1)
			if serial.MeanQuality <= 0 || len(serial.Snapshots) == 0 {
				t.Fatalf("%v/%v: serial run produced no measurements", mode, fid)
			}
			for _, workers := range []int{4, 8} {
				if got := run(workers); !reflect.DeepEqual(serial, got) {
					t.Errorf("%v/%v: Workers=%d timeline diverged from serial", mode, fid, workers)
				}
			}
		}
	}
}
