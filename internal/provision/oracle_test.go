package provision

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceValidateDemands is validateDemands as it was before the key
// order: one pass in input order, duplicates found through a set. Kept
// as the oracle for the error, and for which demand it names.
func referenceValidateDemands(demands []ChunkDemand) error {
	seen := make(map[[2]int]bool, len(demands))
	for _, d := range demands {
		if d.Channel < 0 || d.Chunk < 0 {
			return fmt.Errorf("provision: negative chunk identity (%d,%d)", d.Channel, d.Chunk)
		}
		if err := checkDemand(d); err != nil {
			return err
		}
		key := [2]int{d.Channel, d.Chunk}
		if seen[key] {
			return fmt.Errorf("provision: duplicate chunk (%d,%d)", d.Channel, d.Chunk)
		}
		seen[key] = true
	}
	return nil
}

// referenceMaxDemands is maxDemands as it was before the key order: a
// map from key to the key's last index in current.
func referenceMaxDemands(current []ChunkDemand, future [][]ChunkDemand) []ChunkDemand {
	out := append([]ChunkDemand(nil), current...)
	index := make(map[[2]int]int, len(current))
	for i, d := range current {
		index[[2]int{d.Channel, d.Chunk}] = i
	}
	for _, step := range future {
		for _, d := range step {
			if i, ok := index[[2]int{d.Channel, d.Chunk}]; ok && d.Demand > out[i].Demand {
				out[i].Demand = d.Demand
			}
		}
	}
	return out
}

// referenceSortByDemand is sortByDemand as it was before the radix sort:
// a comparator sort on (Δ descending, channel, chunk), a total order on
// validated demands.
func referenceSortByDemand(demands []ChunkDemand) []ChunkDemand {
	out := append([]ChunkDemand(nil), demands...)
	slices.SortFunc(out, func(a, b ChunkDemand) int {
		if a.Demand != b.Demand {
			if a.Demand > b.Demand {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.Channel, b.Channel); c != 0 {
			return c
		}
		return cmp.Compare(a.Chunk, b.Chunk)
	})
	return out
}

// sameDemands reports whether a and b hold the same demands in the same
// order, Δ compared bit for bit.
func sameDemands(a, b []ChunkDemand) bool {
	return slices.EqualFunc(a, b, func(x, y ChunkDemand) bool {
		return x.Channel == y.Channel && x.Chunk == y.Chunk &&
			math.Float64bits(x.Demand) == math.Float64bits(y.Demand)
	})
}

// checkPlannerMatchesReference holds the key-ordered validation, lookahead
// merge and demand sort to their map-and-comparator references on one
// horizon, twice on one scratch so stale state shows.
func checkPlannerMatchesReference(t *testing.T, s *planScratch, current []ChunkDemand, future [][]ChunkDemand) {
	t.Helper()
	for _, demands := range append([][]ChunkDemand{current}, future...) {
		want := referenceValidateDemands(demands)
		got := s.validateDemands(demands)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("validateDemands(%v) = %v, reference %v", demands, got, want)
		}
		if want == nil {
			var got []ChunkDemand
			for _, i := range s.sortByDemand(demands) {
				got = append(got, demands[i])
			}
			if want := referenceSortByDemand(demands); !sameDemands(got, want) {
				t.Fatalf("sortByDemand(%v) = %v, reference %v", demands, got, want)
			}
		}
	}
	if got, want := s.maxDemands(current, future), referenceMaxDemands(current, future); !sameDemands(got, want) {
		t.Fatalf("maxDemands(%v, %v) = %v, reference %v", current, future, got, want)
	}
}

// demandValues mixes ordinary demands with ±0 ties, repeats, and the
// values validation must reject.
var demandValues = []float64{
	0, math.Copysign(0, -1), 1, 1, 2.5, 1e6, 1e6, 3e6, math.MaxFloat64,
	math.SmallestNonzeroFloat64, -1, math.NaN(), math.Inf(1), math.Inf(-1),
}

// randomHorizon draws a current list and forecast steps over a small key
// space: sorted or shuffled, with duplicates, missing and unknown chunks,
// and occasional bad identities or values.
func randomHorizon(r *rand.Rand) ([]ChunkDemand, [][]ChunkDemand) {
	list := func() []ChunkDemand {
		channels, chunks := 1+r.Intn(4), 1+r.Intn(5)
		var out []ChunkDemand
		for c := range channels {
			for i := range chunks {
				if r.Intn(6) == 0 {
					continue // missing
				}
				d := ChunkDemand{Channel: c, Chunk: i, Demand: float64(r.Intn(4)) * 1e6}
				if r.Intn(3) == 0 {
					d.Demand = demandValues[r.Intn(len(demandValues))]
				}
				if r.Intn(20) == 0 {
					d.Channel = -1
				}
				out = append(out, d)
			}
		}
		for range r.Intn(3) {
			if len(out) > 0 && r.Intn(2) == 0 {
				out = append(out, out[r.Intn(len(out))]) // duplicate
			}
		}
		if r.Intn(2) == 0 {
			r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		}
		return out
	}
	current := list()
	future := make([][]ChunkDemand, r.Intn(4))
	for k := range future {
		future[k] = list()
	}
	return current, future
}

func TestPlannerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var s planScratch
	for trial := 0; trial < 3000; trial++ {
		current, future := randomHorizon(r)
		checkPlannerMatchesReference(t, &s, current, future)
	}
	// Ties at ±0 sort by key whichever sign each zero has.
	zeros := []ChunkDemand{{0, 2, 0}, {0, 0, math.Copysign(0, -1)}, {1, 0, 5}, {0, 1, 0}}
	checkPlannerMatchesReference(t, &s, zeros, [][]ChunkDemand{zeros})
	// Lists of one length in turn, as a round sorts them: a scaled copy
	// keeps the last sort's order, a tie or a swap breaks it.
	base := []ChunkDemand{{0, 0, 4}, {0, 1, 2}, {1, 0, 3}, {1, 1, 1}}
	scaled, tied, swapped := slices.Clone(base), slices.Clone(base), slices.Clone(base)
	for i := range scaled {
		scaled[i].Demand *= 1.5
	}
	tied[3].Demand = 2
	swapped[0].Demand, swapped[2].Demand = 3, 4
	checkPlannerMatchesReference(t, &s, base, [][]ChunkDemand{scaled, tied, swapped, base})
}

// decodeHorizon turns fuzz bytes into a planning horizon: every 3 bytes
// are one demand (channel, chunk, value from demandValues or the byte
// itself), and a channel byte of 0xff starts the next forecast step.
func decodeHorizon(data []byte) ([]ChunkDemand, [][]ChunkDemand) {
	var current []ChunkDemand
	var future [][]ChunkDemand
	list := &current
	for ; len(data) >= 3; data = data[3:] {
		if data[0] == 0xff {
			future = append(future, nil)
			list = &future[len(future)-1]
			continue
		}
		d := ChunkDemand{Channel: int(data[0]%8) - int(data[0]/0xf0), Chunk: int(data[1] % 8), Demand: float64(data[2])}
		if data[2] >= 0xf0 {
			d.Demand = demandValues[int(data[2]-0xf0)%len(demandValues)]
		}
		*list = append(*list, d)
	}
	return current, future
}

func FuzzPlannerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 1, 0, 3, 0xff, 0, 0, 0, 0, 0, 9, 1, 0, 0xf1})
	f.Add([]byte{1, 0, 4, 0, 1, 4, 0, 1, 5, 0xff, 0, 1, 0xf0, 7, 7, 200, 0xff, 0, 1, 0xfb})
	f.Add([]byte{0, 0, 0xf0, 0, 1, 0xf1, 0xf0, 0, 1, 0, 0, 0xfc})
	f.Add([]byte{2, 3, 9, 0, 0, 9, 2, 3, 9, 0xff, 2, 3, 10, 2, 3, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		current, future := decodeHorizon(data)
		var s planScratch
		checkPlannerMatchesReference(t, &s, current, future)
	})
}
