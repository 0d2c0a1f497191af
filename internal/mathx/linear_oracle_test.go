package mathx_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/testutil"
)

// flatten copies a into one row-major buffer.
func flatten(a [][]float64) []float64 {
	n := len(a)
	m := make([]float64, 0, n*n)
	for _, row := range a {
		m = append(m, row...)
	}
	return m
}

// pivotingSystem returns a random n×n system whose diagonal is shrunk so
// partial pivoting has to swap rows in most columns.
func pivotingSystem(r *rand.Rand, n int) ([][]float64, []float64) {
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = r.Float64()*2 - 1
		}
		a[i][i] *= 1e-3
		b[i] = r.Float64()*20 - 10
	}
	return a, b
}

// checkAgainstReference solves a·x = b with SolveLinear and SolveInPlace,
// and with SolveManyInPlace taking b and b reversed as its two columns,
// and requires each to match the reference elimination bit for bit, or
// to fail with the same ErrSingular.
func checkAgainstReference(t *testing.T, a [][]float64, b []float64) {
	t.Helper()
	want, wantErr := testutil.ReferenceSolveLinear(a, b)

	got, err := mathx.SolveLinear(a, b)
	if !errors.Is(err, wantErr) {
		t.Fatalf("SolveLinear err = %v, reference err = %v", err, wantErr)
	}
	if wantErr == nil && !testutil.SameBits(got, want) {
		t.Fatalf("SolveLinear = %v, reference = %v", got, want)
	}

	m, rhs, x := flatten(a), append([]float64(nil), b...), make([]float64, len(b))
	err = mathx.SolveInPlace(m, rhs, x)
	if !errors.Is(err, wantErr) {
		t.Fatalf("SolveInPlace err = %v, reference err = %v", err, wantErr)
	}
	if wantErr == nil && !testutil.SameBits(x, want) {
		t.Fatalf("SolveInPlace = %v, reference = %v", x, want)
	}

	n := len(b)
	rev := slices.Clone(b)
	slices.Reverse(rev)
	wantRev, _ := testutil.ReferenceSolveLinear(a, rev)
	cols := make([]float64, 2*n)
	for i := range b {
		cols[2*i], cols[2*i+1] = b[i], rev[i]
	}
	err = mathx.SolveManyInPlace(flatten(a), cols, 2)
	if !errors.Is(err, wantErr) {
		t.Fatalf("SolveManyInPlace err = %v, reference err = %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i := range b {
		if !sameBitsOrNaN(cols[2*i], want[i]) || !sameBitsOrNaN(cols[2*i+1], wantRev[i]) {
			t.Fatalf("SolveManyInPlace row %d = %v, %v, reference %v, %v", i, cols[2*i], cols[2*i+1], want[i], wantRev[i])
		}
	}
}

// sameBitsOrNaN is bit equality up to the NaN's sign and payload: which
// operand's NaN an IEEE operation passes on is left to the compiled
// instruction order, which differs between loops of different shape.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestSolveInPlaceMatchesReferenceBits(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a, b := pivotingSystem(r, 1+trial%20)
		checkAgainstReference(t, a, b)
	}
}

func TestSolveInPlaceSingularMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 2; n <= 12; n++ {
		a, b := pivotingSystem(r, n)
		copy(a[n-1], a[0]) // rank-deficient: two equal rows
		if _, err := testutil.ReferenceSolveLinear(a, b); !errors.Is(err, mathx.ErrSingular) {
			t.Fatalf("n=%d: reference err = %v, want ErrSingular", n, err)
		}
		checkAgainstReference(t, a, b)
	}
}

func TestSolveInPlaceShapeErrors(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m, rhs, x  []float64
		shouldFail bool
	}{
		{"empty", nil, nil, nil, true},
		{"short matrix", make([]float64, 3), make([]float64, 2), make([]float64, 2), true},
		{"short solution", make([]float64, 4), make([]float64, 2), make([]float64, 1), true},
		{"ok", []float64{2, 0, 0, 4}, []float64{2, 8}, make([]float64, 2), false},
	} {
		err := mathx.SolveInPlace(tc.m, tc.rhs, tc.x)
		if (err != nil) != tc.shouldFail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.shouldFail)
		}
	}
	for _, tc := range []struct {
		name       string
		m, b       []float64
		k          int
		shouldFail bool
	}{
		{"empty", nil, nil, 1, true},
		{"no columns", []float64{1}, []float64{1}, 0, true},
		{"ragged columns", make([]float64, 4), make([]float64, 5), 2, true},
		{"short matrix", make([]float64, 3), make([]float64, 4), 2, true},
		{"ok", []float64{2, 0, 0, 4}, []float64{2, 4, 8, 4}, 2, false},
	} {
		err := mathx.SolveManyInPlace(tc.m, tc.b, tc.k)
		if (err != nil) != tc.shouldFail {
			t.Errorf("SolveManyInPlace %s: err = %v, want failure %v", tc.name, err, tc.shouldFail)
		}
	}
}

// SolveInPlace allocates nothing; SolveLinear allocates its one buffer.
func TestSolveAllocations(t *testing.T) {
	a, b := pivotingSystem(rand.New(rand.NewSource(3)), 8)
	m, rhs, x := flatten(a), make([]float64, len(b)), make([]float64, len(b))
	if allocs := testing.AllocsPerRun(100, func() {
		for i, row := range a {
			copy(m[i*len(b):], row)
		}
		copy(rhs, b)
		if err := mathx.SolveInPlace(m, rhs, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SolveInPlace allocates %.1f times per solve, want 0", allocs)
	}
	cols := make([]float64, len(b)*len(b))
	if allocs := testing.AllocsPerRun(100, func() {
		for i, row := range a {
			copy(m[i*len(b):], row)
		}
		clear(cols)
		for i := range b {
			cols[i*len(b)+i] = 1
		}
		if err := mathx.SolveManyInPlace(m, cols, len(b)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SolveManyInPlace allocates %.1f times per solve, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := mathx.SolveLinear(a, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("SolveLinear allocates %.1f times per solve, want 1", allocs)
	}
}

// FuzzSolveLinear feeds arbitrary small systems — ties, zeros, infinities
// and NaNs included — through SolveLinear and requires it never to panic,
// never to mutate its inputs, and to agree with the reference elimination
// bit for bit (or fail the same way); SolveInPlace and SolveManyInPlace
// are held to the same reference through checkAgainstReference.
func FuzzSolveLinear(f *testing.F) {
	f.Add(uint8(2), []byte{8, 0, 0, 8, 16, 24}, 1.0)                   // identity-like
	f.Add(uint8(2), []byte{0, 8, 8, 0, 56, 72}, 1.0)                   // needs a swap
	f.Add(uint8(2), []byte{8, 16, 16, 32, 8, 16}, 1.0)                 // singular
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 10, 1, 1, 1}, 1e-9) // scaled down
	f.Add(uint8(3), []byte{127, 0, 0, 0, 8, 0, 0, 0, 8, 8, 8, 8}, 1.0) // infinite pivot
	f.Add(uint8(4), []byte{128, 3, 5, 7, 11, 13, 17, 19}, -2.5)        // NaN entry, short data
	f.Fuzz(func(t *testing.T, size uint8, data []byte, scale float64) {
		n := 1 + int(size%12)
		// Byte k becomes int8(k)/8·scale, cycling through data, so the
		// fuzzer controls exact ties and zeros; 127 and -128 map to +Inf
		// and NaN.
		val := func(k int) float64 {
			if len(data) == 0 {
				return 0
			}
			v := int8(data[k%len(data)])
			switch v {
			case 127:
				return math.Inf(1)
			case -128:
				return math.NaN()
			}
			return float64(v) / 8 * scale
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = val(i*n + j)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = val(n*n + i)
		}
		aCopy, bCopy := flatten(a), append([]float64(nil), b...)

		checkAgainstReference(t, a, b)

		if !testutil.SameBits(flatten(a), aCopy) || !testutil.SameBits(b, bCopy) {
			t.Fatalf("SolveLinear mutated its inputs")
		}
	})
}
