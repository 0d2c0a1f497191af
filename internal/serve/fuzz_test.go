package serve

import (
	"context"
	"math"
	"strings"
	"testing"
)

// FuzzLiveSourceFeed drives arbitrary text through the stdin line
// protocol. Whatever Feed returns, it must not panic, and the series it
// leaves behind must hold the source's invariants: retained times
// strictly increasing, every retained rate finite and within
// [0, envelope], and Rate and MeanRate finite anywhere inside the
// retained span.
func FuzzLiveSourceFeed(f *testing.F) {
	for _, seed := range []string{
		"time_s,ch0,ch1\n\n# comment\n0,1,2\n10, 3 , 4",
		"20,x,1\n",
		"20,1\n",
		"30,1,1\nnope,1,1\n",
		"40,1,1\n",
		"# generated\ntime_s,ch0,ch1\n10,1,1\n",
		"\ntime_s,ch0,ch1\n10,1,1\n",
		"0,500,0\n5,0,1e9\n3,1,1\n",
		"-1e308,0,100\n1e308,100,0\n",
	} {
		f.Add(seed)
	}
	const envelope = 100
	f.Fuzz(func(t *testing.T, input string) {
		s, err := NewLiveSource(2, envelope)
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Feed(context.Background(), strings.NewReader(input))

		times := s.tr.Times
		for i, tm := range times {
			if i > 0 && !(tm > times[i-1]) {
				t.Fatalf("retained times not strictly increasing: %v", times)
			}
			for c, row := range s.tr.Rates {
				if r := row[i]; math.IsNaN(r) || r < 0 || r > envelope {
					t.Fatalf("sample %d channel %d: rate %v outside [0, %v]", i, c, r, envelope)
				}
			}
		}
		if len(times) == 0 {
			return
		}
		finite := func(what string, v float64, err error) {
			t.Helper()
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v, %v; want a finite rate", what, v, err)
			}
		}
		probes := append([]float64(nil), times...)
		for i := 1; i < len(times); i++ {
			t0, t1 := times[i-1], times[i]
			for _, q := range []float64{0.25, 0.5, 0.75, 0.999} {
				if p := t0*(1-q) + t1*q; p > t0 && p < t1 {
					probes = append(probes, p)
				}
			}
			for c := 0; c < 2; c++ {
				r, err := s.MeanRate(c, t0, t1)
				finite("MeanRate over a segment", r, err)
			}
		}
		dst := make([]float64, 2)
		for _, p := range probes {
			if err := s.RatesInto(p, dst); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				r, err := s.Rate(c, p)
				finite("Rate", r, err)
				finite("RatesInto", dst[c], nil)
			}
		}
		for c := 0; c < 2; c++ {
			r, err := s.MeanRate(c, times[0], times[len(times)-1])
			finite("MeanRate over the span", r, err)
		}
	})
}
