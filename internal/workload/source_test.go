package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestNextArrivalThinnedBitIdenticalToParams pins the seam's core promise:
// sampling arrivals through the Source interface, as the event engine
// does, consumes exactly the random stream Params.NextArrival consumes,
// so the refactored engines reproduce every pre-seam seeded run bit for
// bit.
func TestNextArrivalThinnedBitIdenticalToParams(t *testing.T) {
	p := Default()
	p.Channels = 5
	src := p.Source()

	direct := rand.New(rand.NewSource(99))
	seam := rand.New(rand.NewSource(99))
	now := 0.0
	for i := 0; i < 2000; i++ {
		c := i % p.Channels
		want, err := p.NextArrival(direct, c, now, now+24*3600)
		if err != nil {
			t.Fatal(err)
		}
		envelope, err := src.MaxRate(c)
		if err != nil {
			t.Fatal(err)
		}
		got := NextArrivalThinned(seam, src, c, envelope, now, now+24*3600)
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("arrival %d: seam %v, direct %v", i, got, want)
		}
		if !math.IsInf(want, 1) {
			now = want
		}
	}
}

// TestSourceIsIndependentOfParams: the adapter holds a private copy, so
// mutating the originating Params never changes an existing source.
func TestSourceIsIndependentOfParams(t *testing.T) {
	p := Default()
	p.Channels = 3
	src := p.Source()
	before, err := src.Rate(0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	p.BaseArrivalRate *= 10
	p.Channels = 1
	after, err := src.Rate(0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("source rate moved with the originating params: %v → %v", before, after)
	}
	if src.NumChannels() != 3 {
		t.Fatalf("source channels = %d, want 3", src.NumChannels())
	}

	clone := src.CloneSource()
	if clone.NumChannels() != 3 {
		t.Fatalf("clone channels = %d", clone.NumChannels())
	}
	c1, _ := clone.Rate(1, 0)
	o1, _ := src.Rate(1, 0)
	if c1 != o1 {
		t.Fatalf("clone rate %v != source rate %v", c1, o1)
	}
}
