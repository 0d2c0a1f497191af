package serve

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"cloudmedia/internal/workload"
)

func mustLive(t *testing.T, channels int, maxRate float64) *LiveSource {
	t.Helper()
	s, err := NewLiveSource(channels, maxRate)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLiveSourceValidation(t *testing.T) {
	if _, err := NewLiveSource(0, 1); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := NewLiveSource(2, 0); err == nil {
		t.Fatal("zero rate ceiling accepted")
	}
	if _, err := NewLiveSource(2, math.NaN()); err == nil {
		t.Fatal("NaN rate ceiling accepted")
	}
	s := mustLive(t, 2, 10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(0, []float64{1}); err == nil {
		t.Fatal("short rate row accepted")
	}
	if err := s.Ingest(math.NaN(), []float64{1, 1}); err == nil {
		t.Fatal("NaN sample time accepted")
	}
	if err := s.Ingest(0, []float64{-1, 1}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestLiveSourceInterpolation(t *testing.T) {
	s := mustLive(t, 2, 100)
	// Empty source: rate 0 everywhere.
	if r, err := s.Rate(0, 5); err != nil || r != 0 {
		t.Fatalf("empty Rate = %v, %v; want 0, nil", r, err)
	}
	if err := s.Ingest(10, []float64{2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(20, []float64{6, 8}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ch   int
		t    float64
		want float64
	}{
		{0, 5, 2},  // before first sample: boundary hold
		{0, 10, 2}, // exact hit
		{0, 15, 4}, // midpoint
		{1, 15, 6}, // midpoint, channel 1
		{0, 20, 6}, // exact hit on last
		{1, 25, 8}, // after last sample: boundary hold
	}
	for _, c := range cases {
		got, err := s.Rate(c.ch, c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Rate(%d, %v) = %v, want %v", c.ch, c.t, got, c.want)
		}
	}
	if _, err := s.Rate(2, 0); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
}

func TestLiveSourceRatesIntoMatchesRate(t *testing.T) {
	s := mustLive(t, 3, 100)
	for i := 0; i < 10; i++ {
		ti := float64(i) * 7
		if err := s.Ingest(ti, []float64{float64(i), float64(i * 2), 50 - float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]float64, 3)
	for _, tt := range []float64{-1, 0, 3.5, 7, 31.4, 63, 99} {
		if err := s.RatesInto(tt, dst); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			want, err := s.Rate(c, tt)
			if err != nil {
				t.Fatal(err)
			}
			if dst[c] != want {
				t.Fatalf("RatesInto(%v)[%d] = %v, Rate = %v", tt, c, dst[c], want)
			}
		}
	}
	if err := s.RatesInto(0, make([]float64, 2)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestLiveSourceClampAndDrop(t *testing.T) {
	s := mustLive(t, 1, 10)
	if err := s.Ingest(0, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(10, []float64{99}); err != nil {
		t.Fatal(err)
	}
	if got := s.Clamped(); got != 1 {
		t.Fatalf("Clamped = %d, want 1", got)
	}
	if r, _ := s.Rate(0, 10); r != 10 {
		t.Fatalf("clamped rate = %v, want envelope 10", r)
	}
	// Stale sample: dropped, not an error, and does not disturb the series.
	if err := s.Ingest(5, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if r, _ := s.Rate(0, 5); r != 7.5 {
		t.Fatalf("rate after dropped sample = %v, want 7.5", r)
	}
}

func TestLiveSourceRetention(t *testing.T) {
	s := mustLive(t, 1, 100)
	if err := s.SetRetention(100); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRetention(-1); err == nil {
		t.Fatal("negative retention accepted")
	}
	for i := 0; i < 50; i++ {
		if err := s.Ingest(float64(i*10), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Window is 100s over samples every 10s: ~11 retained.
	if n := s.Samples(); n > 15 {
		t.Fatalf("retained %d samples with a 100s window over 10s spacing", n)
	}
	if n := s.Samples(); n < 2 {
		t.Fatalf("retained %d samples, want at least a segment", n)
	}
}

func TestLiveSourceFeed(t *testing.T) {
	s := mustLive(t, 2, 100)
	input := strings.Join([]string{
		"time_s,ch0,ch1", // header is skipped
		"",
		"# comment",
		"0,1,2",
		"10, 3 , 4", // spaces tolerated
	}, "\n")
	if err := s.Feed(context.Background(), strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if n := s.Samples(); n != 2 {
		t.Fatalf("Samples = %d, want 2", n)
	}
	if r, _ := s.Rate(1, 5); r != 3 {
		t.Fatalf("fed rate = %v, want 3", r)
	}

	if err := s.Feed(context.Background(), strings.NewReader("20,x,1\n")); err == nil {
		t.Fatal("malformed rate accepted")
	}
	if err := s.Feed(context.Background(), strings.NewReader("20,1\n")); err == nil {
		t.Fatal("short row accepted")
	}
	// Non-numeric time past the first data line is an error, not a header.
	if err := s.Feed(context.Background(), strings.NewReader("30,1,1\nnope,1,1\n")); err == nil {
		t.Fatal("mid-stream bad time accepted")
	}
	// The header is the first line that is neither blank nor a comment,
	// wherever it sits.
	for _, input := range []string{
		"# generated\ntime_s,ch0,ch1\n10,1,1\n",
		"\ntime_s,ch0,ch1\n10,1,1\n",
	} {
		hs := mustLive(t, 2, 100)
		if err := hs.Feed(context.Background(), strings.NewReader(input)); err != nil {
			t.Errorf("Feed(%q): %v", input, err)
		} else if n := hs.Samples(); n != 1 {
			t.Errorf("Feed(%q) kept %d samples, want 1", input, n)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Feed(ctx, strings.NewReader("40,1,1\n")); err != context.Canceled {
		t.Fatalf("cancelled Feed = %v, want context.Canceled", err)
	}
}

func TestLiveSourceSourceContract(t *testing.T) {
	s := mustLive(t, 2, 50)
	var src workload.Source = s
	if src.NumChannels() != 2 {
		t.Fatalf("NumChannels = %d", src.NumChannels())
	}
	if m, err := src.MaxRate(0); err != nil || m != 50 {
		t.Fatalf("MaxRate = %v, %v; want envelope 50", m, err)
	}
	if _, err := src.MaxRate(5); err == nil {
		t.Fatal("out-of-range MaxRate channel accepted")
	}
	if src.CloneSource() != src {
		t.Fatal("CloneSource must return the shared receiver")
	}
	if err := s.Ingest(0, []float64{4, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(100, []float64{4, 0}); err != nil {
		t.Fatal(err)
	}
	m, err := src.MeanRate(0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-4) > 1e-9 {
		t.Fatalf("MeanRate over a flat series = %v, want 4", m)
	}
	if m, _ := src.MeanRate(0, 100, 100); m != 0 {
		t.Fatalf("MeanRate over empty span = %v", m)
	}
}

// Readers interpolating while a feeder ingests must be race-clean (run
// under -race in CI).
func TestLiveSourceConcurrent(t *testing.T) {
	s := mustLive(t, 4, 1000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.Ingest(float64(i), []float64{1, 2, 3, 4})
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Rate(w, 250); err != nil {
					t.Error(err)
					return
				}
				if err := s.RatesInto(123.4, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
