package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomProfileSPD builds a symmetric, strictly diagonally dominant matrix
// (hence SPD) whose rows reach back a random distance: a ragged envelope
// with structural zeros inside it, like the thermal networks' factors.
func randomProfileSPD(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 1; i < n; i++ {
		for j := max(0, i-1-rng.Intn(12)); j < i; j++ {
			if rng.Intn(3) == 0 {
				continue
			}
			v := -rng.Float64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, sum+0.01+rng.Float64())
	}
	return a
}

// blockOutcome is one column's result: the solution, the refined flag and
// the error text ("" for nil).
type blockOutcome struct {
	x       []float64
	refined bool
	err     string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// solveBlockAndSingly solves the columns bs with SolveBlock and with one
// Solve each.
func solveBlockAndSingly(v *VerifiedCholesky, bs [][]float64) (block, single []blockOutcome) {
	n := v.N()
	k := len(bs)
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	refined := make([]bool, k)
	errs := make([]error, k)
	v.SolveBlock(bs, xs, make([]float64, n*BlockWidth), make([]float64, n), refined, errs)
	for j := range bs {
		block = append(block, blockOutcome{xs[j], refined[j], errText(errs[j])})
		x := make([]float64, n)
		ref, err := v.Solve(bs[j], x, make([]float64, n))
		single = append(single, blockOutcome{x, ref, errText(err)})
	}
	return block, single
}

// sameBits reports whether a and b are equal bit for bit, counting any two
// NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func compareOutcomes(t *testing.T, label string, block, single []blockOutcome) {
	t.Helper()
	for j := range block {
		bo, so := block[j], single[j]
		if bo.refined != so.refined || bo.err != so.err {
			t.Fatalf("%s column %d: block (refined %v, err %q), Solve (refined %v, err %q)",
				label, j, bo.refined, bo.err, so.refined, so.err)
		}
		for i := range so.x {
			if !sameBits(bo.x[i], so.x[i]) {
				t.Fatalf("%s column %d: x[%d] = %v, Solve %v", label, j, i, bo.x[i], so.x[i])
			}
		}
	}
}

// TestSolveBlockMatchesSolve: for every width 1–BlockWidth, each column of
// a block solve equals its own verified Solve bit for bit, refined flag
// and error text included. The tolerance is set just above the healthy
// residuals, so the columns land on all three outcomes: accepted at once,
// accepted after refinement, refused. A NaN column is refused while its
// neighbours still match.
func TestSolveBlockMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 120
	a := randomProfileSPD(rng, n)
	v, err := NewVerifiedCholesky(csrFromDense(a), 2e-16)
	if err != nil {
		t.Fatal(err)
	}
	var clean, refined, refused int
	for k := 1; k <= BlockWidth; k++ {
		for rep := 0; rep < 8; rep++ {
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = make([]float64, n)
				for i := range bs[j] {
					bs[j][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			block, single := solveBlockAndSingly(v, bs)
			compareOutcomes(t, "random", block, single)
			for _, o := range single {
				switch {
				case o.err != "":
					refused++
				case o.refined:
					refined++
				default:
					clean++
				}
			}

			// The same columns with one of them poisoned.
			bad := rng.Intn(k)
			bs[bad][rng.Intn(n)] = math.NaN()
			block, single = solveBlockAndSingly(v, bs)
			compareOutcomes(t, "nan", block, single)
			if block[bad].err == "" {
				t.Fatalf("width %d: the NaN column %d was accepted", k, bad)
			}
		}
	}
	if clean == 0 || refined == 0 || refused == 0 {
		t.Fatalf("outcomes clean %d, refined %d, refused %d: every kind must occur for the test to cover the shared tail", clean, refined, refused)
	}
}

// TestSolveBlockZeroAllocs: a clean block solve does not touch the heap.
func TestSolveBlockZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	v, err := NewVerifiedCholesky(csrFromDense(randomProfileSPD(rng, n)), 0)
	if err != nil {
		t.Fatal(err)
	}
	bs, xs := make([][]float64, BlockWidth), make([][]float64, BlockWidth)
	for j := range bs {
		bs[j], xs[j] = make([]float64, n), make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = rng.NormFloat64()
		}
	}
	blk, r := make([]float64, n*BlockWidth), make([]float64, n)
	refined, errs := make([]bool, BlockWidth), make([]error, BlockWidth)
	allocs := testing.AllocsPerRun(100, func() {
		v.SolveBlock(bs, xs, blk, r, refined, errs)
	})
	for j, err := range errs {
		if err != nil {
			t.Fatalf("column %d: %v", j, err)
		}
	}
	if allocs != 0 {
		t.Fatalf("VerifiedCholesky.SolveBlock allocates %.1f per clean block", allocs)
	}
}

// BenchmarkCholeskySolveBlock305 is BenchmarkCholeskySolve305 for a full
// block; it reports the cost per right-hand side.
func BenchmarkCholeskySolveBlock305(b *testing.B) {
	const n = 305
	ch, err := NewCholesky(csrFromDense(benchSPD(n)))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, n*BlockWidth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range x {
			x[r] = float64(r / BlockWidth % 7)
		}
		ch.SolveBlock(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockWidth), "ns/rhs")
}
