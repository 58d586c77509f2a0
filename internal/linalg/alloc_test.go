package linalg

import "testing"

// Dynamic proof of the hot-path allocation discipline (DESIGN.md §18) for
// the verified solver the transient integrator runs every 20 µs step: a
// clean (non-refining) Solve must not touch the heap.
func TestVerifiedCholeskySolveZeroAllocs(t *testing.T) {
	v, err := NewVerifiedCholesky(csrFromDense(spd3()), 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x, r := make([]float64, 3), make([]float64, 3)
	if _, err := v.Solve(b, x, r); err != nil {
		t.Fatal(err)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.Solve(b, x, r); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("VerifiedCholesky.Solve allocates %.1f per clean solve", allocs)
	}
}
