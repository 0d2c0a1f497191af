package sim

import (
	"testing"
)

// TestCloudCapacitySumsTrackWrites: the per-channel totals, summed at
// each read, must track SetCloudCapacity writes exactly — reads after any
// write pattern equal a fresh sum over the pools.
func TestCloudCapacitySumsTrackWrites(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	freshSum := func(channel int) float64 {
		var total float64
		for _, p := range s.channels[channel].pools {
			total += p.cloudCap
		}
		return total
	}
	check := func(context string) {
		t.Helper()
		var want float64
		for c := range s.channels {
			got, err := s.CloudCapacity(c)
			if err != nil {
				t.Fatal(err)
			}
			if fresh := freshSum(c); got != fresh {
				t.Errorf("%s: channel %d capacity %v != fresh sum %v", context, c, got, fresh)
			}
			want += got
		}
		if got := s.TotalCloudCapacity(); got != want {
			t.Errorf("%s: total capacity %v != sum of channels %v", context, got, want)
		}
	}
	check("initial")
	for c := 0; c < len(s.channels); c++ {
		for j := 0; j < s.cfg.Channel.Chunks; j++ {
			if err := s.SetCloudCapacity(c, j, float64(100*(c+1)+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after full provisioning")
	// Overwrite a single chunk after a read.
	if err := s.SetCloudCapacity(1, 2, 7.5); err != nil {
		t.Fatal(err)
	}
	check("after single-chunk overwrite")
	s.RunUntil(120)
	check("after integration")
}

// TestCloudCapacitySumsAllocFree guards the capacity sums the same way
// TestRebalanceSteadyStateAllocs guards rebalancePeers: the run sums
// capacity at every sample, so a read must not allocate.
func TestCloudCapacitySumsAllocFree(t *testing.T) {
	s, err := New(smallConfig(t, ClientServer))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(s.channels); c++ {
		for j := 0; j < s.cfg.Channel.Chunks; j++ {
			if err := s.SetCloudCapacity(c, j, 1e5); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		sink += s.TotalCloudCapacity()
		for c := range s.channels {
			v, _ := s.CloudCapacity(c)
			sink += v
		}
	})
	if allocs != 0 {
		t.Errorf("capacity reads allocate %.0f objects, want 0 (sink %v)", allocs, sink)
	}
}
