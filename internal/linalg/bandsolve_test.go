package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDominantBanded builds a diagonally dominant band matrix.
func randomDominantBanded(rng *rand.Rand, n, kl, ku int) *Banded {
	b := NewBanded(n, kl, ku)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j || !b.InBand(i, j) {
				continue
			}
			v := rng.NormFloat64()
			b.Set(i, j, v)
			sum += math.Abs(v)
		}
		b.Set(i, i, sum+1+rng.Float64())
	}
	return b
}

// Property: BandLU matches dense LU on dominant band systems.
func TestBandLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		kl := rng.Intn(3)
		ku := rng.Intn(3)
		b := randomDominantBanded(rng, n, kl, ku)
		f1, err := NewBandLU(b)
		if err != nil {
			return false
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64() * 3
		}
		x := make([]float64, n)
		if err := f1.Solve(rhs, x); err != nil {
			return false
		}
		dlu, err := NewLU(b.Dense())
		if err != nil {
			return false
		}
		ref := make([]float64, n)
		dlu.Solve(rhs, ref)
		for i := range x {
			if !almostEqual(x[i], ref[i], 1e-7*(1+math.Abs(ref[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandLUSingular(t *testing.T) {
	b := NewBanded(3, 1, 1)
	// Zero diagonal without pivoting → singular.
	b.Set(0, 1, 1)
	b.Set(1, 0, 1)
	if _, err := NewBandLU(b); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestBandLUSolveInPlaceAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := randomDominantBanded(rng, 10, 2, 1)
	f, err := NewBandLU(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 10 {
		t.Fatalf("N = %d", f.N())
	}
	if f.String() == "" {
		t.Fatal("empty String()")
	}
	rhs := make([]float64, 10)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), rhs...)
	if err := f.Solve(rhs, rhs); err != nil { // aliased
		t.Fatal(err)
	}
	// Verify residual against the original RHS.
	ax := make([]float64, 10)
	b.MulVec(rhs, ax)
	for i := range ax {
		if !almostEqual(ax[i], orig[i], 1e-8*(1+math.Abs(orig[i]))) {
			t.Fatalf("in-place solve residual at %d: %v vs %v", i, ax[i], orig[i])
		}
	}
	if err := f.Solve(make([]float64, 3), make([]float64, 10)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

// The per-core thermal band system (tridiagonal-ish, dominant) solves with
// the band kernel — the §III-E "resistance matrix" path.
func TestBandLUThermalChain(t *testing.T) {
	n := 18
	b := NewBanded(n, 1, 1)
	for i := 0; i < n; i++ {
		g := 0.05 + 0.01*float64(i%3)
		b.Set(i, i, 2*g+0.16)
		if i > 0 {
			b.Set(i, i-1, -g)
		}
		if i < n-1 {
			b.Set(i, i+1, -g)
		}
	}
	f, err := NewBandLU(b)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, n)
	p[7] = 1.5 // hot spot
	x := make([]float64, n)
	if err := f.Solve(p, x); err != nil {
		t.Fatal(err)
	}
	// Temperature rise peaks at the heated node and decays monotonically
	// away from it.
	for i := 0; i < n; i++ {
		if x[i] <= 0 {
			t.Fatalf("node %d non-positive rise %v", i, x[i])
		}
		if i != 7 && x[i] >= x[7] {
			t.Fatalf("node %d (%.4f) not below the heated node (%.4f)", i, x[i], x[7])
		}
	}
	for i := 8; i < n-1; i++ {
		if x[i+1] >= x[i] {
			t.Fatalf("rise not decaying right of the spot at %d", i)
		}
	}
}
