package mathx

import "testing"

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.125, 15},
	}
	for _, tc := range tests {
		if got := Percentile(xs, tc.p); !ApproxEqual(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty slice should give 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5}); got != 4 {
		t.Errorf("Sum = %v, want 4", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1e9, 1e9+1, 1e-6) {
		t.Error("relative comparison should match")
	}
	if ApproxEqual(1, 2, 1e-6) {
		t.Error("1 and 2 should not match")
	}
	if !ApproxEqual(0, 1e-9, 1e-6) {
		t.Error("absolute comparison near zero should match")
	}
}
