package linalg

import "fmt"

// Band-system solvers. The §III-E hardware discussion notes that when the
// thermal resistance matrix is used directly, the per-core temperature
// update is a band solve rather than a band multiply; BandLU provides that
// path in O(n·w²) instead of dense O(n³).

// BandLU is an LU factorization of a band matrix without pivoting, valid
// for the diagonally dominant conductance systems this library assembles.
// Factorization costs O(n·kl·ku); each solve costs O(n·(kl+ku)).
type BandLU struct {
	n, kl, ku int
	w         int // band width kl+ku+1, the row stride of lu
	// lu stores the factors in band layout: row i, band column j-i+kl.
	lu []float64
}

// at reads factor element (i, j); (i, j) must be in band.
//
//tecfan:hotpath
func (f *BandLU) at(i, j int) float64 { return f.lu[i*f.w+(j-i+f.kl)] }

// NewBandLU factors the band matrix. It returns ErrSingular on a zero
// pivot; callers with non-dominant systems should use the dense LU (which
// pivots) instead.
func NewBandLU(b *Banded) (*BandLU, error) {
	n, kl, ku := b.N, b.KL, b.KU
	w := kl + ku + 1
	f := &BandLU{n: n, kl: kl, ku: ku, w: w, lu: make([]float64, n*w)}
	copy(f.lu, b.Data)
	at := func(i, j int) float64 { return f.lu[i*w+(j-i+kl)] }
	set := func(i, j int, v float64) { f.lu[i*w+(j-i+kl)] = v }
	for col := 0; col < n; col++ {
		piv := at(col, col)
		if !finiteNonzero(piv) {
			return nil, ErrSingular
		}
		rmax := col + kl
		if rmax >= n {
			rmax = n - 1
		}
		for r := col + 1; r <= rmax; r++ {
			m := at(r, col) / piv
			set(r, col, m)
			if m == 0 {
				continue
			}
			cmax := col + ku
			if cmax >= n {
				cmax = n - 1
			}
			for c := col + 1; c <= cmax; c++ {
				// (r, c) is in band iff c ≤ r+ku; the fill stays inside the
				// band because we do not pivot.
				if c <= r+ku {
					set(r, c, at(r, c)-m*at(col, c))
				}
			}
		}
	}
	return f, nil
}

// Solve computes x with A·x = rhs. x may alias rhs.
func (f *BandLU) Solve(rhs, x []float64) error {
	if len(rhs) != f.n || len(x) != f.n {
		return ErrShape
	}
	if &x[0] != &rhs[0] {
		copy(x, rhs)
	}
	// Forward substitution with unit-diagonal L.
	for i := 0; i < f.n; i++ {
		lo := i - f.kl
		if lo < 0 {
			lo = 0
		}
		s := x[i]
		for j := lo; j < i; j++ {
			s -= f.at(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		hi := i + f.ku
		if hi >= f.n {
			hi = f.n - 1
		}
		s := x[i]
		for j := i + 1; j <= hi; j++ {
			s -= f.at(i, j) * x[j]
		}
		d := f.at(i, i)
		if !finiteNonzero(d) {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// N returns the system size.
func (f *BandLU) N() int { return f.n }

// String describes the factorization shape.
func (f *BandLU) String() string {
	return fmt.Sprintf("BandLU(n=%d, kl=%d, ku=%d)", f.n, f.kl, f.ku)
}
