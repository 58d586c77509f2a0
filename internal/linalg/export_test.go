package linalg

// Pivots returns the factor's diagonal for the external reference tests.
func (c *Cholesky) Pivots() []float64 {
	p := make([]float64, c.n)
	for i := range p {
		p[i] = c.pivot(i)
	}
	return p
}

// CSRFromDense exposes csrFromDense to the external reference tests.
var CSRFromDense = csrFromDense

// CheckBlockWidths exposes checkBlockWidths to the external reference
// tests, which run it on the thermal networks' factors.
var CheckBlockWidths = checkBlockWidths

// solveBlockGo is SolveBlock with the Go row kernels: the bitwise
// reference for the assembly ones.
func (c *Cholesky) solveBlockGo(x []float64) {
	const w = BlockWidth
	for i := 0; i < c.n; i++ {
		row := c.l[c.off[i]:c.off[i+1]]
		blockForwardRowGo((*[w]float64)(x[i*w:]), row[:len(row)-1], x[c.first[i]*w:i*w], row[len(row)-1])
	}
	for i := c.n - 1; i >= 0; i-- {
		lo, hi := c.utOff[i], c.utOff[i+1]
		blockBackRowGo((*[w]float64)(x[i*w:]), c.utRow[lo:hi], c.utVal[lo:hi], x, c.pivot(i))
	}
}

// SolveBlockAnyWidth runs VerifiedCholesky.SolveBlock's block path for
// any width, below blockMin too, for the tests and the measurement that
// sets blockMin.
func (v *VerifiedCholesky) SolveBlockAnyWidth(b, x [][]float64, blk, r []float64, refined []bool, errs []error) {
	if len(b) > BlockWidth || len(x) != len(b) || len(refined) != len(b) || len(errs) != len(b) {
		panic(ErrShape)
	}
	v.solveBlock(b, x, blk, r, refined, errs)
}

// csrFromDense copies the nonzeros of d, row by row in ascending column
// order: the CSR the factor and the verified solver take, built from a
// dense test matrix. A non-square d keeps its column indices, which
// NewCholesky refuses with ErrShape.
func csrFromDense(d *Dense) *CSR {
	rowPtr := make([]int, d.Rows+1)
	var cols []int
	var vals []float64
	for r := 0; r < d.Rows; r++ {
		for c, v := range d.Row(r) {
			if v != 0 {
				cols = append(cols, c)
				vals = append(vals, v)
			}
		}
		rowPtr[r+1] = len(vals)
	}
	m := &CSR{N: d.Rows, RowPtr: rowPtr, ColIdx: cols, Vals: vals, sym: new(symbolic)}
	if d.Rows == d.Cols {
		m.indexDiag()
	}
	return m
}
