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
