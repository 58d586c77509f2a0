package linalg

// Pivots returns the factor's diagonal for the external reference tests.
func (c *Cholesky) Pivots() []float64 {
	p := make([]float64, c.n)
	for i := range p {
		p[i] = c.pivot(i)
	}
	return p
}
