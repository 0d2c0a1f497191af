package core

import (
	"reflect"
	"testing"
)

func demandFixture() []ChannelDemand {
	return []ChannelDemand{
		{CloudDemand: []float64{1e6, 2e6, 0}},
		{CloudDemand: []float64{5e5}},
		{CloudDemand: nil},
		{CloudDemand: []float64{3e6, 4e6}},
	}
}

// Flattening into a reused scratch must produce exactly what a fresh
// buffer does, and refill (not append past) a dirty buffer.
func TestFlattenDemandsIntoMatchesFlatten(t *testing.T) {
	demands := demandFixture()
	want := FlattenDemandsInto(nil, demands)
	got := FlattenDemandsInto(nil, demands)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("fresh scratch differs:\n%v\nvs\n%v", got, want)
	}
	// Reuse with stale contents and excess capacity: same result.
	dirty := FlattenDemandsInto(nil, demandFixture())
	dirty = append(dirty, dirty...)
	got = FlattenDemandsInto(dirty, demands)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused scratch differs:\n%v\nvs\n%v", got, want)
	}
}

// Once the scratch has grown to the round's size, flattening allocates
// nothing — the per-interval control path stays allocation-free.
func TestFlattenDemandsIntoAllocFree(t *testing.T) {
	demands := demandFixture()
	scratch := FlattenDemandsInto(nil, demands)
	allocs := testing.AllocsPerRun(200, func() {
		scratch = FlattenDemandsInto(scratch, demands)
	})
	if allocs > 0 {
		t.Fatalf("FlattenDemandsInto allocates %.1f times per round", allocs)
	}
}

// The lookahead flatten refills the controller's per-step scratch: the
// result matches a fresh flatten per step, a longer horizon grows the
// scratch without disturbing earlier steps, and a steady round allocates
// nothing.
func TestFlattenFutureReusesScratch(t *testing.T) {
	c := &Controller{}
	short := [][]ChannelDemand{demandFixture()}
	long := [][]ChannelDemand{demandFixture(), demandFixture()[1:], demandFixture()}
	for _, steps := range [][][]ChannelDemand{short, long, short, long} {
		got := c.flattenFuture(steps)
		if len(got) != len(steps) {
			t.Fatalf("flattened %d steps, want %d", len(got), len(steps))
		}
		for step := range steps {
			if want := FlattenDemandsInto(nil, steps[step]); !reflect.DeepEqual(got[step], want) {
				t.Fatalf("step %d:\n%v\nvs\n%v", step, got[step], want)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.flattenFuture(long)
	})
	if allocs > 0 {
		t.Fatalf("flattenFuture allocates %.1f times per round", allocs)
	}
}
