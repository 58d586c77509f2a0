package linalg

import (
	"fmt"
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
	return solveWithAndSingly(v, bs, v.SolveBlock)
}

// solveWithAndSingly solves the columns bs with solve, SolveBlock or its
// block path, and with one Solve each.
func solveWithAndSingly(v *VerifiedCholesky, bs [][]float64, solve func(b, x [][]float64, blk, r []float64, refined []bool, errs []error)) (block, single []blockOutcome) {
	n := v.N()
	k := len(bs)
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = make([]float64, n)
	}
	refined := make([]bool, k)
	errs := make([]error, k)
	solve(bs, xs, make([]float64, n*BlockWidth), make([]float64, n), refined, errs)
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

// specialValues are the inputs a floating-point kernel gets wrong first:
// signed zeros, subnormals, the overflow edge, infinities and NaN.
var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1050,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// blockColumn returns a right-hand side of length n in one of four
// flavours: finite values at a random scale (subnormal to near overflow),
// only signed zeros, finite values with a few special values mixed in, or
// special values only.
func blockColumn(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	flavour := rng.Intn(4)
	scale := math.Pow(10, float64(rng.Intn(601)-300))
	if rng.Intn(8) == 0 {
		scale = 0x1p-1060
	}
	for i := range b {
		switch flavour {
		case 1:
			b[i] = specialValues[rng.Intn(2)]
		case 3:
			b[i] = specialValues[rng.Intn(len(specialValues))]
		default:
			b[i] = rng.NormFloat64() * scale
		}
	}
	if flavour == 2 {
		for s := 1 + rng.Intn(3); s > 0; s-- {
			b[rng.Intn(n)] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	return b
}

// checkBlockWidths runs checkBlock on reps blocks of every width
// 1–BlockWidth, their columns drawn by blockColumn, so ±0, subnormals,
// ±Inf, NaN and MaxFloat64 go through the kernels.
func checkBlockWidths(t *testing.T, label string, v *VerifiedCholesky, rng *rand.Rand, reps int) {
	t.Helper()
	for k := 1; k <= BlockWidth; k++ {
		for rep := 0; rep < reps; rep++ {
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = blockColumn(rng, v.N())
			}
			checkBlock(t, fmt.Sprintf("%s width %d rep %d", label, k, rep), v, bs)
		}
	}
}

// checkBlock sends the k = len(bs) columns through the row kernels of v's
// factor and matrix as one block, the idle columns zero as SolveBlock
// fills them, at any width, below blockMin too. Cholesky.SolveBlock must
// give every column bitwise the Go kernels' block (solveBlockGo), and each
// active column bitwise Solve's solution of it; every row sum of the
// residual kernel must equal the Go kernel's; and the verified block path
// must give each column Solve's outcome. Only outside the triangular solve
// do NaNs count as equal whatever their payload: a residual row can add
// two NaNs, and which operand's payload survives is the compiler's choice,
// not part of the order contract.
func checkBlock(t *testing.T, at string, v *VerifiedCholesky, bs [][]float64) {
	t.Helper()
	const w = BlockWidth
	c, a, n := v.chol, v.a, v.N()
	x, ref := make([]float64, n*w), make([]float64, n*w)
	for i := 0; i < n; i++ {
		for j, b := range bs {
			x[i*w+j] = b[i]
		}
	}
	copy(ref, x)
	c.SolveBlock(x)
	c.solveBlockGo(ref)
	for p := range x {
		if math.Float64bits(x[p]) != math.Float64bits(ref[p]) {
			t.Fatalf("%s: x[%d] column %d = %x, Go kernels %x",
				at, p/w, p%w, math.Float64bits(x[p]), math.Float64bits(ref[p]))
		}
	}
	single := make([]float64, n)
	for j, b := range bs {
		c.Solve(b, single)
		for i, s := range single {
			if !sameBits(x[i*w+j], s) {
				t.Fatalf("%s: column %d x[%d] = %v, Solve %v", at, j, i, x[i*w+j], s)
			}
		}
	}

	var s, sGo [w]float64
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		blockResidualRow(&s, a.ColIdx[lo:hi], a.Vals[lo:hi], x)
		blockResidualRowGo(&sGo, a.ColIdx[lo:hi], a.Vals[lo:hi], x)
		for j := range s {
			if !sameBits(s[j], sGo[j]) {
				t.Fatalf("%s: residual row %d column %d = %x, Go kernel %x",
					at, i, j, math.Float64bits(s[j]), math.Float64bits(sGo[j]))
			}
		}
	}

	block, singles := solveWithAndSingly(v, bs, v.SolveBlockAnyWidth)
	compareOutcomes(t, at, block, singles)
}

// withEmptyEnvelopes returns a copy of a with rows rows (and, by symmetry,
// columns) decoupled from every earlier row: each such row of L is its
// pivot alone.
func withEmptyEnvelopes(a *Dense, rows ...int) *Dense {
	a = a.Clone()
	for _, i := range rows {
		for j := 0; j < i; j++ {
			a.Set(i, j, 0)
			a.Set(j, i, 0)
		}
	}
	return a
}

// TestSolveBlockKernelEveryWidth runs checkBlockWidths on random profile
// matrices, with and without empty-envelope rows; ref_test.go runs it on
// the thermal networks' factors.
func TestSolveBlockKernelEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 9, 60} {
		a := randomProfileSPD(rng, n)
		empty := []int{n / 3, n / 2, n - 1}
		for _, m := range []struct {
			label string
			a     *Dense
		}{
			{"profile", a},
			{"empty-envelope", withEmptyEnvelopes(a, empty...)},
		} {
			v, err := NewVerifiedCholesky(csrFromDense(m.a), 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.label == "empty-envelope" {
				for _, i := range empty {
					if f := v.chol.first[i]; f != i {
						t.Fatalf("n=%d: row %d's envelope starts at column %d", n, i, f)
					}
				}
			}
			checkBlockWidths(t, fmt.Sprintf("%s(n=%d)", m.label, n), v, rng, 6)
		}
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
