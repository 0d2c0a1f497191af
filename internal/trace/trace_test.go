package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmedia/internal/workload"
)

func ramp() *Trace {
	return &Trace{
		Times: []float64{0, 100, 200},
		Rates: [][]float64{
			{1, 3, 3},
			{0, 0, 2},
		},
	}
}

func TestValidateCatchesMalformedTraces(t *testing.T) {
	cases := map[string]*Trace{
		"nil":             nil,
		"no samples":      {Rates: [][]float64{{1}}},
		"no channels":     {Times: []float64{0}},
		"row mismatch":    {Times: []float64{0, 1}, Rates: [][]float64{{1}}},
		"negative rate":   {Times: []float64{0}, Rates: [][]float64{{-1}}},
		"NaN rate":        {Times: []float64{0}, Rates: [][]float64{{math.NaN()}}},
		"Inf time":        {Times: []float64{math.Inf(1)}, Rates: [][]float64{{1}}},
		"non-increasing":  {Times: []float64{0, 0}, Rates: [][]float64{{1, 1}}},
		"decreasing time": {Times: []float64{1, 0}, Rates: [][]float64{{1, 1}}},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed trace", name)
		}
	}
	if err := ramp().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestRateInterpolatesAndClamps(t *testing.T) {
	tr := ramp()
	cases := []struct {
		ch   int
		t    float64
		want float64
	}{
		{0, -50, 1}, // before the first sample: clamp
		{0, 0, 1},   // exact sample
		{0, 50, 2},  // midpoint of the 1→3 ramp
		{0, 100, 3}, // exact sample
		{0, 150, 3}, // flat segment
		{0, 500, 3}, // after the last sample: clamp
		{1, 150, 1}, // midpoint of the 0→2 ramp
		{1, 199, 1.98},
	}
	for _, c := range cases {
		got, err := tr.Rate(c.ch, c.t)
		if err != nil {
			t.Fatalf("Rate(%d, %v): %v", c.ch, c.t, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Rate(%d, %v) = %v, want %v", c.ch, c.t, got, c.want)
		}
	}
	if _, err := tr.Rate(2, 0); err == nil {
		t.Error("Rate on out-of-range channel: want error")
	}
	if _, err := tr.Rate(-1, 0); err == nil {
		t.Error("Rate on negative channel: want error")
	}
}

func TestMaxRateIsAnEnvelope(t *testing.T) {
	tr := ramp()
	for c := range tr.Rates {
		max, err := tr.MaxRate(c)
		if err != nil {
			t.Fatal(err)
		}
		for at := -100.0; at <= 400; at += 7 {
			r, err := tr.Rate(c, at)
			if err != nil {
				t.Fatal(err)
			}
			if r > max {
				t.Fatalf("channel %d: Rate(%v) = %v exceeds MaxRate %v", c, at, r, max)
			}
		}
	}
}

func TestMeanRateMatchesNumericIntegral(t *testing.T) {
	tr := ramp()
	for _, span := range [][2]float64{{0, 200}, {-100, 50}, {150, 400}, {25, 175}, {90, 110}} {
		for c := range tr.Rates {
			got, err := tr.MeanRate(c, span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			// Fine Riemann sum as the reference.
			const steps = 20000
			dt := (span[1] - span[0]) / steps
			var sum float64
			for i := 0; i < steps; i++ {
				r, _ := tr.Rate(c, span[0]+(float64(i)+0.5)*dt)
				sum += r
			}
			want := sum / steps
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("channel %d MeanRate(%v, %v) = %v, numeric %v", c, span[0], span[1], got, want)
			}
		}
	}
	if r, err := tr.MeanRate(0, 100, 100); err != nil || r != 0 {
		t.Errorf("empty span: got %v, %v", r, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := ramp()
	cp := tr.Clone()
	cp.Times[0] = -99
	cp.Rates[0][0] = 42
	if tr.Times[0] != 0 || tr.Rates[0][0] != 1 {
		t.Error("mutating a clone reached the original")
	}
	src := tr.CloneSource()
	if src.NumChannels() != 2 {
		t.Errorf("CloneSource channels = %d", src.NumChannels())
	}
}

func TestScaleAndResample(t *testing.T) {
	tr := ramp()
	doubled, err := tr.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := doubled.Rates[0][1]; got != 6 {
		t.Errorf("scaled rate = %v, want 6", got)
	}
	if _, err := tr.Scale(math.NaN()); err == nil {
		t.Error("NaN scale accepted")
	}

	re, err := tr.Resample(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Times) != 5 { // 0,50,100,150,200
		t.Fatalf("resampled to %d samples, want 5", len(re.Times))
	}
	for i, at := range re.Times {
		want, _ := tr.Rate(0, at)
		if re.Rates[0][i] != want {
			t.Errorf("resampled rate at %v = %v, want %v", at, re.Rates[0][i], want)
		}
	}
	// A non-divisible step keeps the final instant so no demand is lost.
	odd, err := tr.Resample(130)
	if err != nil {
		t.Fatal(err)
	}
	if got := odd.Times[len(odd.Times)-1]; got != 200 {
		t.Errorf("resample dropped the final instant: last = %v", got)
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestTraceImplementsSourceSeam(t *testing.T) {
	var src workload.Source = ramp()
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	for c, want := range []float64{3, 2} { // the ramp's rates at t=200
		if got, err := src.Rate(c, 200); err != nil || got != want {
			t.Errorf("Rate(%d, 200) = %v, %v; want %v", c, got, err, want)
		}
	}
}

func TestRecorderRoundsArrivalsIntoRates(t *testing.T) {
	rec, err := NewRecorder(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec.Add(0, 3, 1) // five arrivals in bin 0
	}
	rec.Add(1, 25, 2.5) // fractional mass in bin 2
	// Ignored: out of range, negative mass, bad time.
	rec.Add(7, 1, 1)
	rec.Add(-1, 1, 1)
	rec.Add(0, 1, -1)
	rec.Add(0, math.NaN(), 1)
	rec.Add(0, -5, 1)

	tr, err := rec.Trace(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != 4 {
		t.Fatalf("bins = %d, want 4 (horizon padding)", len(tr.Times))
	}
	if tr.Times[0] != 5 || tr.Times[1] != 15 {
		t.Errorf("bin midpoints = %v", tr.Times[:2])
	}
	if tr.Rates[0][0] != 0.5 { // 5 arrivals / 10 s
		t.Errorf("channel 0 bin 0 rate = %v, want 0.5", tr.Rates[0][0])
	}
	if tr.Rates[1][2] != 0.25 { // 2.5 mass / 10 s
		t.Errorf("channel 1 bin 2 rate = %v, want 0.25", tr.Rates[1][2])
	}
	if tr.Rates[0][3] != 0 || tr.Rates[1][3] != 0 {
		t.Error("horizon padding bins must be quiet")
	}

	if _, err := NewRecorder(0, 10); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewRecorder(2, 0); err == nil {
		t.Error("zero step accepted")
	}
	empty, _ := NewRecorder(1, 10)
	if _, err := empty.Trace(0); err == nil {
		t.Error("empty recording with no horizon: want error")
	}
}

func TestGeneratorsProduceValidTraces(t *testing.T) {
	wl := workload.Default()
	wl.Channels = 4

	from, err := FromSource(wl.Source(), 24, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := from.Validate(); err != nil {
		t.Fatal(err)
	}
	// The sampled trace reproduces the parametric rates at the grid.
	r, err := from.Rate(0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wl.ChannelRate(0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("FromSource rate at noon = %v, parametric %v", r, want)
	}

	ww, err := WeekdayWeekend(wl, 7, 3600, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.Validate(); err != nil {
		t.Fatal(err)
	}
	weekday, _ := ww.Rate(0, 12*3600)        // day 0
	weekend, _ := ww.Rate(0, (5*24+12)*3600) // day 5
	if math.Abs(weekend-2*weekday) > 1e-9*weekday {
		t.Errorf("weekend rate %v, want 2× weekday %v", weekend, weekday)
	}

	drift, err := PopularityDrift(4, 24, 900, 0.8, 1.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := drift.Validate(); err != nil {
		t.Fatal(err)
	}
	// Aggregate intensity is conserved while ranks rotate.
	for _, at := range []float64{0, 3 * 3600, 9*3600 + 450} {
		var total float64
		for c := 0; c < 4; c++ {
			r, _ := drift.Rate(c, at)
			total += r
		}
		if math.Abs(total-1.2) > 1e-9 {
			t.Errorf("drift aggregate at %v = %v, want 1.2", at, total)
		}
	}

	ld, err := LaunchDecay(3, 12, 900, 0.5, 1, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ld.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, _ := ld.Rate(2, 3600); r != 0 {
		t.Errorf("channel 2 live before its launch: rate %v at 1 h", r)
	}
	if r, _ := ld.Rate(0, 2*3600); r <= 0 {
		t.Error("channel 0 still silent 2 h after launch")
	}

	for _, bad := range []error{
		func() error { _, err := FromSource(nil, 1, 60); return err }(),
		func() error { _, err := WeekdayWeekend(wl, 0, 60, 1); return err }(),
		func() error { _, err := PopularityDrift(0, 1, 60, 0.8, 1, 1); return err }(),
		func() error { _, err := LaunchDecay(2, 1, 60, 1, 0, 1, 1); return err }(),
		func() error { _, err := FromSource(wl.Source(), -1, 60); return err }(),
		func() error { _, err := FromSource(wl.Source(), 1, 0); return err }(),
	} {
		if bad == nil {
			t.Error("generator accepted degenerate arguments")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := ramp()
	enc := EncodeCSV(tr)
	if !strings.HasPrefix(string(enc), "time_s,ch0,ch1\n") {
		t.Fatalf("unexpected header: %q", string(enc[:20]))
	}
	back, err := ParseCSV(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeCSV(back), enc) {
		t.Error("CSV encode∘parse not byte-stable")
	}
	if back.NumChannels() != 2 || len(back.Times) != 3 {
		t.Errorf("round-trip shape: %d channels × %d samples", back.NumChannels(), len(back.Times))
	}

	for name, input := range map[string]string{
		"empty":          "",
		"header only":    "time_s,ch0\n",
		"no channels":    "time_s\n0\n",
		"ragged row":     "time_s,ch0\n0,1\n1\n",
		"bad float":      "time_s,ch0\n0,x\n",
		"bad time":       "time_s,ch0\nx,1\n",
		"negative rate":  "time_s,ch0\n0,-1\n",
		"dup timestamps": "time_s,ch0\n0,1\n0,2\n",
		"inf rate":       "time_s,ch0\n0,1e999\n",
	} {
		if _, err := ParseCSV([]byte(input)); err == nil {
			t.Errorf("%s: ParseCSV accepted %q", name, input)
		}
	}

	// Whitespace and scientific notation are accepted and canonicalized.
	loose := "t,a,b\n 0 ,1e1, 2.50 \n9.0,3,0.1\n"
	got, err := ParseCSV([]byte(loose))
	if err != nil {
		t.Fatal(err)
	}
	canon := EncodeCSV(got)
	if want := "time_s,ch0,ch1\n0,10,2.5\n9,3,0.1\n"; string(canon) != want {
		t.Errorf("canonical form = %q, want %q", canon, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := ramp()
	enc, err := EncodeJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("JSON encode∘parse not byte-stable")
	}
	for name, input := range map[string]string{
		"garbage":       "{",
		"empty object":  "{}",
		"negative rate": `{"times":[0],"rates":[[-1]]}`,
		"row mismatch":  `{"times":[0,1],"rates":[[1]]}`,
	} {
		if _, err := ParseJSON([]byte(input)); err == nil {
			t.Errorf("%s: ParseJSON accepted %q", name, input)
		}
	}
}

func TestReadWriteFileDispatchesOnExtension(t *testing.T) {
	dir := t.TempDir()
	tr := ramp()
	for _, name := range []string{"t.csv", "t.json"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumChannels() != 2 || len(back.Times) != 3 {
			t.Errorf("%s: shape lost in round trip", name)
		}
	}
	if err := WriteFile(filepath.Join(dir, "t.xml"), tr); err == nil {
		t.Error("unsupported extension accepted on write")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("unsupported extension accepted on read")
	}
}

// TestGridOverflowGuards pins the review fix: degenerate step/duration
// ratios must fail with "grid too large" instead of overflowing the int
// conversion and hanging or OOMing.
func TestGridOverflowGuards(t *testing.T) {
	day := &Trace{Times: []float64{0, 86400}, Rates: [][]float64{{1, 1}}}
	if _, err := day.Resample(1e-9); err == nil {
		t.Error("Resample with a sub-nanosecond step accepted")
	}
	wl := workload.Default()
	wl.Channels = 2
	if _, err := FromSource(wl.Source(), 1e30, 900); err == nil {
		t.Error("1e30-hour grid accepted")
	}
	if _, err := FromSource(wl.Source(), 24, 1e-12); err == nil {
		t.Error("1e-12-second step accepted")
	}
	if _, err := LaunchDecay(4, 1e25, 1, 1, 1, 1, 1); err == nil {
		t.Error("launchdecay overflow grid accepted")
	}
}

// Times of opposite sign near the float limit make every span overflow:
// the segment fraction and the mean are then taken over halved times, so
// the trace still reads its true values (the plain quotients read NaN, a
// rate 1 at t=0 and a NaN mean).
func TestHugeTimesReadFinite(t *testing.T) {
	tr, err := ParseCSV([]byte("time_s,ch0\n-1e308,1\n1e308,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := tr.Rate(0, 0); err != nil || r != 2 {
		t.Errorf("Rate(0, 0) = %v, %v; want 2", r, err)
	}
	for _, at := range []float64{-1e308, -5e307, 0, 9.9e307, 1e308} {
		if r, err := tr.Rate(0, at); err != nil || math.IsNaN(r) || r < 1 || r > 3 {
			t.Errorf("Rate(0, %v) = %v, %v; want within [1, 3]", at, r, err)
		}
	}
	if m, err := tr.MeanRate(0, -1e308, 1e308); err != nil || m != 2 {
		t.Errorf("MeanRate over the span = %v, %v; want 2", m, err)
	}
	// A finite span whose integral overflows keeps a finite mean too.
	big := &Trace{Times: []float64{0, 1e10}, Rates: [][]float64{{1e300, 1e300}}}
	if m, err := big.MeanRate(0, 0, 1e10); err != nil || m != 1e300 {
		t.Errorf("MeanRate of a huge flat rate = %v, %v; want 1e300", m, err)
	}
}
