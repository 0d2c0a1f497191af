package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseTraceCSV drives arbitrary bytes through the CSV parser. The
// contract under fuzz: never panic, and for any input that parses, the
// encoder is canonical — parse → encode → parse → encode is byte-stable
// and the re-parsed trace still validates — and the trace's reads hold
// (checkReads).
func FuzzParseTraceCSV(f *testing.F) {
	f.Add([]byte("time_s,ch0,ch1\n0,1,2\n60,2,3\n"))
	f.Add([]byte("time_s,ch0\n0,0\n"))
	f.Add([]byte("t,a,b,c\n-5,0.25,1e-3,3\n0.5,1,2,0\n900,0,0,0\n"))
	f.Add([]byte("time_s,ch0\n 1 ,2.50\n9.0,1e1\n"))
	f.Add([]byte("time_s\n0\n"))
	f.Add([]byte("time_s,ch0\n0,-1\n"))
	f.Add([]byte("time_s,ch0\nNaN,1\n"))
	f.Add([]byte(""))
	f.Add(EncodeCSV(&Trace{Times: []float64{0, 450, 900}, Rates: [][]float64{{0.1, 0.7, 0.2}, {0, 0.05, 0}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseCSV(data)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ParseCSV returned an invalid trace: %v", err)
		}
		checkReads(t, tr)
		enc := EncodeCSV(tr)
		back, err := ParseCSV(enc)
		if err != nil {
			t.Fatalf("re-parse of encoder output failed: %v\nencoded: %q", err, enc)
		}
		if enc2 := EncodeCSV(back); !bytes.Equal(enc, enc2) {
			t.Fatalf("CSV round trip not byte-stable:\nfirst:  %q\nsecond: %q", enc, enc2)
		}
	})
}

// FuzzParseTraceJSON mirrors FuzzParseTraceCSV for the JSON codec.
func FuzzParseTraceJSON(f *testing.F) {
	f.Add([]byte(`{"times":[0,60],"rates":[[1,2],[3,4]]}`))
	f.Add([]byte(`{"times":[0],"rates":[[0]]}`))
	f.Add([]byte(`{"times":[-10,0.5,9e3],"rates":[[0.25,1e-3,3]]}`))
	f.Add([]byte(`{"rates":[[1]]}`))
	f.Add([]byte(`{"times":[0,0],"rates":[[1,1]]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	mustJSON := func(tr *Trace) []byte {
		out, err := EncodeJSON(tr)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(mustJSON(&Trace{Times: []float64{0, 450, 900}, Rates: [][]float64{{0.1, 0.7, 0.2}, {0, 0.05, 0}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseJSON(data)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ParseJSON returned an invalid trace: %v", err)
		}
		checkReads(t, tr)
		enc, err := EncodeJSON(tr)
		if err != nil {
			t.Fatalf("encoding a parsed trace failed: %v", err)
		}
		back, err := ParseJSON(enc)
		if err != nil {
			t.Fatalf("re-parse of encoder output failed: %v\nencoded: %q", err, enc)
		}
		enc2, err := EncodeJSON(back)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("JSON round trip not byte-stable:\nfirst:  %q\nsecond: %q", enc, enc2)
		}
	})
}

// checkReads asserts what every valid trace must read, however extreme its
// times and rates: Rate and RatesInto finite and within the channel row's
// [min, max] at every sample, inside every segment and beyond both ends,
// and MeanRate finite over every segment and over the whole span.
func checkReads(t *testing.T, tr *Trace) {
	t.Helper()
	times := tr.Times
	probes := append([]float64{math.Inf(-1), -math.MaxFloat64, math.MaxFloat64}, times...)
	for i := 1; i < len(times); i++ {
		t0, t1 := times[i-1], times[i]
		for _, q := range []float64{0.25, 0.5, 0.999} {
			if p := t0*(1-q) + t1*q; p > t0 && p < t1 {
				probes = append(probes, p)
			}
		}
		if p := t0/2 + t1/2; p > t0 && p < t1 {
			probes = append(probes, p)
		}
	}
	dst := make([]float64, tr.NumChannels())
	for _, p := range probes {
		if err := tr.RatesInto(p, dst); err != nil {
			t.Fatal(err)
		}
		for c, row := range tr.Rates {
			lo, hi := row[0], row[0]
			for _, r := range row {
				lo, hi = math.Min(lo, r), math.Max(hi, r)
			}
			r, err := tr.Rate(c, p)
			if err != nil || !(r >= lo && r <= hi) {
				t.Fatalf("Rate(%d, %v) = %v, %v; want within [%v, %v]", c, p, r, err, lo, hi)
			}
			if v := dst[c]; !(v >= lo && v <= hi) {
				t.Fatalf("RatesInto(%v)[%d] = %v, want within [%v, %v]", p, c, v, lo, hi)
			}
		}
	}
	spans := [][2]float64{{times[0], times[len(times)-1]}, {-math.MaxFloat64, math.MaxFloat64}}
	for i := 1; i < len(times); i++ {
		spans = append(spans, [2]float64{times[i-1], times[i]})
	}
	for c := range tr.Rates {
		for _, sp := range spans {
			m, err := tr.MeanRate(c, sp[0], sp[1])
			if err != nil || math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatalf("MeanRate(%d, %v, %v) = %v, %v; want finite", c, sp[0], sp[1], m, err)
			}
		}
	}
}
