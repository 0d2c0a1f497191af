package workload

import (
	"math"
	"math/rand"
	"testing"

	"cloudmedia/internal/mathx"
)

func TestDefaultValidates(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default params invalid: %v", err)
	}
	if p.Channels != 20 {
		t.Errorf("Channels = %d, want 20 (the paper deploys 20 channels)", p.Channels)
	}
	if p.JumpMeanSeconds != 900 {
		t.Errorf("JumpMeanSeconds = %v, want 900 (15 minutes)", p.JumpMeanSeconds)
	}
	if len(p.FlashCrowds) != 2 {
		t.Errorf("FlashCrowds = %d, want 2 (noon and evening)", len(p.FlashCrowds))
	}
	// Paper's uplink range: [180 Kbps, 10 Mbps] in bytes/s.
	if p.PeerUplink.Lo != 22.5e3 || p.PeerUplink.Hi != 1.25e6 || p.PeerUplink.Shape != 3 {
		t.Errorf("uplink distribution = %+v", p.PeerUplink)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Channels = 0 },
		func(p *Params) { p.ZipfExponent = -1 },
		func(p *Params) { p.BaseArrivalRate = -1 },
		func(p *Params) { p.BaseLevel = -0.1 },
		func(p *Params) { p.JumpMeanSeconds = 0 },
		func(p *Params) { p.FlashCrowds[0].WidthHours = 0 },
		func(p *Params) { p.FlashCrowds[0].Amplitude = -1 },
		func(p *Params) { p.FlashCrowds[0].PeakHour = 25 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestChannelWeightsZipf(t *testing.T) {
	p := Default()
	w, err := p.ChannelWeights()
	if err != nil {
		t.Fatalf("ChannelWeights: %v", err)
	}
	if len(w) != 20 {
		t.Fatalf("len = %d", len(w))
	}
	if !mathx.ApproxEqual(mathx.Sum(w), 1, 1e-9) {
		t.Errorf("weights sum to %v", mathx.Sum(w))
	}
	if w[0] <= w[19] {
		t.Error("channel 0 should be the most popular")
	}
}

func TestRateMultiplierDailyPattern(t *testing.T) {
	p := Default()
	night := p.RateMultiplier(4 * 3600)    // 4 am
	noon := p.RateMultiplier(12 * 3600)    // noon flash crowd
	evening := p.RateMultiplier(20 * 3600) // evening flash crowd
	if noon <= night {
		t.Errorf("noon %v should exceed night %v", noon, night)
	}
	if evening <= noon {
		t.Errorf("evening crowd %v should be the daily peak (noon %v)", evening, noon)
	}
	// Pattern repeats daily.
	if got := p.RateMultiplier(12*3600 + 24*3600); !mathx.ApproxEqual(got, noon, 1e-9) {
		t.Errorf("day-2 noon %v != day-1 noon %v", got, noon)
	}
	// Envelope dominates everywhere.
	max := p.MaxRateMultiplier()
	for h := 0.0; h < 24; h += 0.25 {
		if m := p.RateMultiplier(h * 3600); m > max+1e-9 {
			t.Errorf("multiplier %v at hour %v exceeds envelope %v", m, h, max)
		}
	}
}

func TestRateMultiplierWrapsMidnight(t *testing.T) {
	p := Default()
	p.FlashCrowds = []FlashCrowd{{PeakHour: 23.5, WidthHours: 1, Amplitude: 1}}
	before := p.RateMultiplier(23 * 3600)
	after := p.RateMultiplier(0.25 * 3600) // 00:15, within a σ of the wrapped peak
	if after <= p.BaseLevel+0.1 {
		t.Errorf("crowd should spill past midnight: %v (before: %v)", after, before)
	}
}

func TestChannelRateOrderingAndErrors(t *testing.T) {
	p := Default()
	r0, err := p.ChannelRate(0, 12*3600)
	if err != nil {
		t.Fatalf("ChannelRate: %v", err)
	}
	r19, err := p.ChannelRate(19, 12*3600)
	if err != nil {
		t.Fatalf("ChannelRate: %v", err)
	}
	if r0 <= r19 {
		t.Errorf("popular channel rate %v should exceed tail %v", r0, r19)
	}
	if _, err := p.ChannelRate(20, 0); err == nil {
		t.Error("out-of-range channel: want error")
	}
	if _, err := p.MaxChannelRate(-1); err == nil {
		t.Error("negative channel: want error")
	}
}

func TestNextArrivalStatistics(t *testing.T) {
	p := Default()
	p.Channels = 1
	p.ZipfExponent = 0
	p.BaseArrivalRate = 1
	p.BaseLevel = 1
	p.FlashCrowds = nil // homogeneous rate 1/s
	rng := rand.New(rand.NewSource(77))
	var count int
	now := 0.0
	for {
		next, err := p.NextArrival(rng, 0, now, 1000)
		if err != nil {
			t.Fatalf("NextArrival: %v", err)
		}
		if math.IsInf(next, 1) {
			break
		}
		if next <= now {
			t.Fatalf("non-increasing arrival %v after %v", next, now)
		}
		now = next
		count++
	}
	if count < 900 || count > 1100 {
		t.Errorf("arrivals = %d, want ≈1000", count)
	}
}

func TestNextArrivalPeaksAtFlashCrowd(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(78))
	countIn := func(startHour, hours float64) int {
		now := startHour * 3600
		horizon := now + hours*3600
		n := 0
		for {
			next, err := p.NextArrival(rng, 0, now, horizon)
			if err != nil {
				t.Fatalf("NextArrival: %v", err)
			}
			if math.IsInf(next, 1) {
				break
			}
			now = next
			n++
		}
		return n
	}
	night := countIn(3, 2)    // 3–5 am
	evening := countIn(19, 2) // 19–21, around the evening crowd
	if evening <= night*2 {
		t.Errorf("evening arrivals %d should dwarf night %d", evening, night)
	}
}

func TestSampleUplinkWithinPaperRange(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 5000; i++ {
		u := p.SampleUplink(rng)
		if u < 22.5e3 || u > 1.25e6 {
			t.Fatalf("uplink %v outside paper range", u)
		}
	}
}

func TestNextJumpMean(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(80))
	jumps := make([]float64, 50000)
	for i := range jumps {
		jumps[i] = p.NextJump(rng)
	}
	if mean := mathx.Sum(jumps) / float64(len(jumps)); !mathx.ApproxEqual(mean, 900, 0.05) {
		t.Errorf("jump mean %v, want ≈900 s", mean)
	}
}

func TestUplinkForRatio(t *testing.T) {
	const r = 50e3                                   // paper streaming rate, bytes/s
	for _, ratio := range []float64{0.9, 1.0, 1.2} { // Fig. 11's three settings
		d, err := UplinkForRatio(r, ratio)
		if err != nil {
			t.Fatalf("UplinkForRatio(%v): %v", ratio, err)
		}
		if !mathx.ApproxEqual(d.Mean(), ratio*r, 1e-6) {
			t.Errorf("ratio %v: mean %v, want %v", ratio, d.Mean(), ratio*r)
		}
		if d.Shape != 3 {
			t.Errorf("ratio %v: shape %v changed", ratio, d.Shape)
		}
	}
	if _, err := UplinkForRatio(0, 1); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := UplinkForRatio(r, 0); err == nil {
		t.Error("zero ratio: want error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Default()
	if _, err := p.ChannelWeights(); err != nil { // populate the cache
		t.Fatal(err)
	}
	c := p.Clone()
	c.FlashCrowds[0].PeakHour = 3
	cw, err := c.ChannelWeights()
	if err != nil {
		t.Fatal(err)
	}
	cw[0] = -1

	if p.FlashCrowds[0].PeakHour == 3 {
		t.Error("clone shares flash crowds")
	}
	pw, err := p.ChannelWeights()
	if err != nil {
		t.Fatal(err)
	}
	if pw[0] == -1 {
		t.Error("clone shares the cached Zipf weights")
	}
}
