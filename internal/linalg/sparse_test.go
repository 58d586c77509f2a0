package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLaplacian builds a random grid-like SPD sparse matrix: a 1-D
// resistive chain with grounding, the simplest thermal network.
func randomLaplacian(rng *rand.Rand, n int) *CSR {
	var items []Coord
	for i := 0; i < n; i++ {
		diag := 0.5 + rng.Float64() // ground leg keeps it SPD
		if i > 0 {
			g := 0.1 + rng.Float64()
			items = append(items, Coord{i, i - 1, -g}, Coord{i - 1, i, -g})
			items = append(items, Coord{i, i, g}, Coord{i - 1, i - 1, g})
		}
		items = append(items, Coord{i, i, diag})
	}
	return NewCSR(n, items)
}

func TestCSRAssembly(t *testing.T) {
	m := NewCSR(3, []Coord{
		{0, 0, 2}, {0, 1, -1},
		{1, 0, -1}, {1, 1, 2}, {1, 2, -1},
		{2, 1, -1}, {2, 2, 2},
		{1, 1, 0.5}, // duplicate: must sum
	})
	if m.NNZ() != 7 {
		t.Fatalf("NNZ = %d, want 7", m.NNZ())
	}
	if got := m.At(1, 1); got != 2.5 {
		t.Fatalf("duplicate not summed: At(1,1) = %v", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Fatalf("absent element = %v, want 0", got)
	}
	if got := m.Diag(2); got != 2 {
		t.Fatalf("Diag(2) = %v", got)
	}
}

func TestCSRDiagAbsent(t *testing.T) {
	m := NewCSR(2, []Coord{{0, 1, 1}, {1, 0, 1}})
	if m.Diag(0) != 0 || m.Diag(1) != 0 {
		t.Fatal("absent diagonal should read 0")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomLaplacian(rng, 25)
	d := m.Dense()
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 25)
	y2 := make([]float64, 25)
	m.MulVec(x, y1)
	d.MulVec(x, y2)
	for i := range y1 {
		if !almostEqual(y1[i], y2[i], 1e-12) {
			t.Fatalf("CSR vs dense mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := randomLaplacian(rand.New(rand.NewSource(1)), 10)
	x := make([]float64, 10)
	Fill(x, 3)
	res := m.SolveCG(make([]float64, 10), x, CGOptions{})
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should produce zero solution")
		}
	}
}

// Property: CG solves random SPD Laplacians and matches Cholesky.
func TestSolveCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		m := randomLaplacian(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res := m.SolveCG(b, x, CGOptions{Tol: 1e-12})
		if !res.Converged {
			return false
		}
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		ref := make([]float64, n)
		ch.Solve(b, ref)
		for i := range x {
			if !almostEqual(x[i], ref[i], 1e-6*(1+math.Abs(ref[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 50
	m := randomLaplacian(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	cold := make([]float64, n)
	r1 := m.SolveCG(b, cold, CGOptions{Tol: 1e-12})
	// Warm start from the exact solution: should converge in ~0 iterations.
	warm := append([]float64(nil), cold...)
	r2 := m.SolveCG(b, warm, CGOptions{Tol: 1e-10})
	if !r1.Converged || !r2.Converged {
		t.Fatal("CG failed to converge")
	}
	if r2.Iterations > 2 {
		t.Fatalf("warm start took %d iterations", r2.Iterations)
	}
}

func TestSolveCGMaxIter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomLaplacian(rng, 60)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 60)
	res := m.SolveCG(b, x, CGOptions{MaxIter: 1, Tol: 1e-14})
	if res.Converged {
		t.Fatal("1 iteration should not converge to 1e-14")
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
}
