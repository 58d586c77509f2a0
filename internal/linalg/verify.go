package linalg

import (
	"errors"
	"fmt"
	"math"

	"tecfan/internal/floats"
)

// Verified solves: the numerical self-defense layer under the thermal
// integrator (DESIGN.md §15). A factorization without pivoting (band LU) or
// with a marginal pivot (Cholesky on a nearly indefinite matrix) can return
// a solution that is quietly wrong long before it returns an error. The
// Verified* wrappers keep the original matrix, check the relative residual
// ‖Ax−b‖∞/‖b‖∞ after every solve, run one step of iterative refinement when
// it exceeds the tolerance, and hand back a typed NumError — with a
// condition estimate from the pivot data the factorization already has —
// instead of propagating garbage into temperatures and metrics.

// DefaultResidualTol is the relative-residual acceptance threshold. Healthy
// conductance systems in this repo solve to ~1e-14; the gap up to 1e-8 is
// the refinement's working room, so a fault-free run never refines and the
// guarded path stays byte-identical to the unguarded one.
const DefaultResidualTol = 1e-8

// ErrDiverged marks a solve whose residual stayed above tolerance after
// refinement, or produced non-finite entries. It is the terminal error of
// the recovery ladder; NumError wraps it.
var ErrDiverged = errors.New("linalg: solve diverged (residual above tolerance after refinement)")

// NumError is the structured diagnosis of a rejected solve.
type NumError struct {
	Op          string  // "cholesky" or "bandlu"
	Residual    float64 // relative residual after the last attempt
	Tol         float64 // acceptance threshold it failed
	Cond        float64 // condition estimate from the pivots
	Refinements int     // refinement steps attempted
	Err         error   // underlying sentinel (ErrDiverged, ErrSingular, ...)
}

func (e *NumError) Error() string {
	return fmt.Sprintf("linalg: %s solve rejected: residual %s exceeds tol %s (cond est %s, %d refinement(s)): %v",
		e.Op, SafeFloat(e.Residual), SafeFloat(e.Tol), SafeFloat(e.Cond), e.Refinements, e.Err)
}

func (e *NumError) Unwrap() error { return e.Err }

// SafeFloat formats v for diagnostics without ever emitting the literal
// tokens "NaN" or "Inf": diagnosis strings travel into results, checkpoints
// and reports, and the crucible's no-non-finite oracle searches those for
// leaked non-finite values. A diagnosis that *describes* a NaN must not trip that tripwire.
func SafeFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "not-a-number"
	case math.IsInf(v, 1):
		return "overflow(+)"
	case math.IsInf(v, -1):
		return "overflow(-)"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// finiteNonzero is the single pivot acceptability check. The historical
// `piv == 0 || math.IsNaN(piv)` spelling let ±Inf pivots through: Inf/Inf
// in the elimination then mints NaNs two columns later, past the check.
//
//tecfan:hotpath
func finiteNonzero(v float64) bool {
	return v != 0 && floats.Finite(v)
}

// finitePositive is the SPD-pivot variant: Cholesky needs d > 0 and finite
// (a +Inf diagonal passes `d <= 0 || IsNaN(d)` but sqrt(+Inf) poisons the
// factor).
//
//tecfan:hotpath
func finitePositive(v float64) bool {
	return v > 0 && floats.Finite(v)
}

// relResidual returns ‖r‖∞/‖b‖∞ with r already computed, falling back to
// the absolute norm for b = 0. A NaN anywhere in r makes the result NaN,
// which compares false against any tolerance and so is rejected.
func relResidual(r, b []float64) float64 {
	var rn, bn float64
	for i := range r {
		if a := math.Abs(r[i]); a > rn || math.IsNaN(a) {
			rn = a
		}
		if a := math.Abs(b[i]); a > bn {
			bn = a
		}
	}
	if bn == 0 {
		return rn
	}
	return rn / bn
}

// VerifiedCholesky pairs a Cholesky factor with the matrix it factored so
// every solve can be residual-checked and refined. A is the CSR it was
// factored from, kept as is, so the residual b − A·x costs O(nnz(A))
// (2 425 entries on the 305-node SCC16 network, against 93 025 dense). For
// a CSR that stores exactly the nonzeros of a dense matrix, in ascending
// column order (as the thermal network assembles its systems), each row
// sums in the dense order: the skipped terms are products with an exact
// zero, so the residual, and with it the refinement verdict, is bitwise
// the dense one for finite x. Each Solve therefore costs
// O(nnz(L) + nnz(A)).
//
// A VerifiedCholesky is read-only after construction, so one factor may
// serve solves from several goroutines at once: the residual and
// refinement scratch is the caller's, lent to each Solve.
type VerifiedCholesky struct {
	chol *Cholesky
	a    *CSR
	tol  float64
	cond float64
}

// NewVerifiedCholesky factors a and keeps it for residual checks; a must
// not be changed after. tol ≤ 0 selects DefaultResidualTol.
func NewVerifiedCholesky(a *CSR, tol float64) (*VerifiedCholesky, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	n := ch.N()
	v := &VerifiedCholesky{chol: ch, a: a, tol: tol}
	// Condition estimate from the pivots: cond₂(A) ≈ (max lᵢᵢ / min lᵢᵢ)².
	// Crude but free, and exactly the data that degrades as A approaches
	// indefiniteness.
	mn, mx := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		d := ch.pivot(i)
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
	}
	if mn > 0 {
		v.cond = (mx / mn) * (mx / mn)
	} else {
		v.cond = math.MaxFloat64
	}
	return v, nil
}

// Cond returns the pivot-based condition estimate.
func (v *VerifiedCholesky) Cond() float64 { return v.cond }

// N returns the system size.
func (v *VerifiedCholesky) N() int { return v.chol.N() }

// Solve computes x with A·x = b, verifies the residual, and refines once if
// needed. r is the caller's scratch, length n, that holds the residual and
// then the refinement correction; callers keep one per goroutine so solves
// stay allocation-free. refined reports whether a refinement step changed x
// (a fault-free system never refines, keeping guarded runs
// byte-identical). On failure x is left as the best attempt but err is a
// *NumError and callers must not use x.
func (v *VerifiedCholesky) Solve(b, x, r []float64) (refined bool, err error) {
	v.chol.Solve(b, x)
	return v.verify(b, x, r)
}

// blockMin is the fewest columns SolveBlock runs through the block kernel.
// The kernel always carries BlockWidth columns, and on the 305-node SCC16
// factor one block costs about as much as four single solves, so fewer
// columns than this are cheaper solved one at a time. Both kernels give the
// same bits, so the choice is speed alone.
const blockMin = 5

// SolveBlock is Solve for the k = len(b) ≤ BlockWidth right-hand sides b[j]
// at once: x[j] receives the solution of b[j], and refined[j] and errs[j]
// what Solve(b[j], x[j], r) would return, bit for bit. blk is the caller's
// scratch for the column-interleaved block, length n·BlockWidth (it may be
// nil when k < blockMin, where the columns are solved one by one); r is the
// residual scratch, as for Solve. Columns never mix: a refused or
// non-finite column leaves every other column's solution and verdict as
// its own Solve would give them.
//
// A block is verified in one pass over A for all its columns
// (blockResidual), each column's residual summed in residual's order. Only
// a column that fails that check goes through verify, which recomputes
// its residual bit for bit and refines or refuses it as Solve would.
//
//tecfan:hotpath
func (v *VerifiedCholesky) SolveBlock(b, x [][]float64, blk, r []float64, refined []bool, errs []error) {
	const w = BlockWidth
	k := len(b)
	if k > w || len(x) != k || len(refined) != k || len(errs) != k {
		panic(ErrShape)
	}
	n := v.chol.n
	for j := range b {
		if len(b[j]) != n || len(x[j]) != n {
			panic(ErrShape)
		}
	}
	if k < blockMin {
		for j := range b {
			v.chol.Solve(b[j], x[j])
			refined[j], errs[j] = v.verify(b[j], x[j], r)
		}
		return
	}
	if len(blk) != n*w {
		panic(ErrShape)
	}
	for j := 0; j < w; j++ {
		if j >= k {
			for i := 0; i < n; i++ {
				blk[i*w+j] = 0 // an idle column solves to zero
			}
			continue
		}
		for i, bi := range b[j] {
			blk[i*w+j] = bi
		}
	}
	v.chol.SolveBlock(blk)
	for j := range x {
		xj := x[j]
		for i := range xj {
			xj[i] = blk[i*w+j]
		}
	}
	var res [w]float64
	v.blockResidual(b, blk, &res)
	for j := range b {
		if res[j] <= v.tol && floats.AllFinite(x[j]) {
			refined[j], errs[j] = false, nil
			continue
		}
		refined[j], errs[j] = v.verify(b[j], x[j], r)
	}
}

// blockResidual sets res[j] to the relative residual ‖b[j] − A·X[:,j]‖∞ /
// ‖b[j]‖∞ of each of the len(b) columns of the column-interleaved solution
// blk, in one pass over A. Column j's row sums, residual entries and norms
// are computed in exactly residual's order, so res[j] is bitwise what
// residual would return for it, NaN rule included.
//
//tecfan:hotpath
func (v *VerifiedCholesky) blockResidual(b [][]float64, blk []float64, res *[BlockWidth]float64) {
	const w = BlockWidth
	a := v.a
	var rn, bn [w]float64
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols, vals := a.ColIdx[lo:hi], a.Vals[lo:hi]
		vals = vals[:len(cols)]
		var s [w]float64
		for t, c := range cols {
			av := vals[t]
			xc := blk[c*w : c*w+w : c*w+w]
			s[0] += av * xc[0]
			s[1] += av * xc[1]
			s[2] += av * xc[2]
			s[3] += av * xc[3]
			s[4] += av * xc[4]
			s[5] += av * xc[5]
			s[6] += av * xc[6]
			s[7] += av * xc[7]
		}
		for j, bj := range b {
			bi := bj[i]
			if d := math.Abs(bi - s[j]); d > rn[j] || math.IsNaN(d) {
				rn[j] = d
			}
			if d := math.Abs(bi); d > bn[j] {
				bn[j] = d
			}
		}
	}
	for j := range b {
		if bn[j] == 0 {
			res[j] = rn[j]
		} else {
			res[j] = rn[j] / bn[j]
		}
	}
}

// verify is the tail Solve and SolveBlock share once x holds the factor's
// solution of A·x = b: the residual check, one refinement step when it
// fails, and the refusal when the refined x still fails.
//
//tecfan:hotpath
func (v *VerifiedCholesky) verify(b, x, r []float64) (refined bool, err error) {
	res := v.residual(b, x, r)
	if res <= v.tol && floats.AllFinite(x) {
		return false, nil
	}
	// One step of iterative refinement: solve A·d = r, x += d. With a
	// residual computed in working precision this recovers solves degraded
	// by mild ill-conditioning; anything it cannot fix is genuinely
	// divergent and must be refused, not retried forever. The correction
	// overwrites r in place (Cholesky.Solve allows x to alias b).
	v.chol.Solve(r, r)
	for i := range x {
		x[i] += r[i]
	}
	res = v.residual(b, x, r)
	if res <= v.tol && floats.AllFinite(x) {
		return true, nil
	}
	//lint:tecfan-ignore allocfree -- divergence refusal path: allocates a diagnosis at most once per rejected solve
	return true, &NumError{Op: "cholesky", Residual: res, Tol: v.tol, Cond: v.cond, Refinements: 1, Err: ErrDiverged}
}

// residual fills r = b − A·x row by row and returns the relative residual
// ‖r‖∞/‖b‖∞, with relResidual's NaN rule and b = 0 fallback, tracking both
// norms in the same pass. Each row sums in CSR.MulVec's order, so r is
// bitwise b − MulVec(x).
func (v *VerifiedCholesky) residual(b, x, r []float64) float64 {
	a := v.a
	if len(b) != a.N || len(x) != a.N || len(r) != a.N {
		panic(ErrShape)
	}
	var rn, bn float64
	for i := range r {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		cols, vals := a.ColIdx[lo:hi], a.Vals[lo:hi]
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		ri := b[i] - s
		r[i] = ri
		if d := math.Abs(ri); d > rn || math.IsNaN(d) {
			rn = d
		}
		if d := math.Abs(b[i]); d > bn {
			bn = d
		}
	}
	if bn == 0 {
		return rn
	}
	return rn / bn
}

// VerifiedBandLU is the band-matrix counterpart of VerifiedCholesky. The
// band factorization does not pivot, so it is the solver most in need of a
// residual check: diagonal dominance is assumed, never enforced.
type VerifiedBandLU struct {
	lu       *BandLU
	band     *Banded
	tol      float64
	cond     float64
	ax, r, d []float64
}

// NewVerifiedBandLU factors b and retains a copy of the band for residual
// checks. tol ≤ 0 selects DefaultResidualTol.
func NewVerifiedBandLU(b *Banded, tol float64) (*VerifiedBandLU, error) {
	f, err := NewBandLU(b)
	if err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	keep := &Banded{N: b.N, KL: b.KL, KU: b.KU, Data: append([]float64(nil), b.Data...)}
	v := &VerifiedBandLU{
		lu:   f,
		band: keep,
		tol:  tol,
		ax:   make([]float64, b.N),
		r:    make([]float64, b.N),
		d:    make([]float64, b.N),
	}
	// Condition estimate from the U diagonal: max|uᵢᵢ|/min|uᵢᵢ|. Without
	// pivoting the uᵢᵢ are the actual elimination pivots, so their spread
	// is the direct record of how close the factorization came to dividing
	// by zero.
	w := f.kl + f.ku + 1
	mn, mx := math.Inf(1), 0.0
	for i := 0; i < f.n; i++ {
		d := math.Abs(f.lu[i*w+f.kl])
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
	}
	if mn > 0 {
		v.cond = mx / mn
	} else {
		v.cond = math.MaxFloat64
	}
	return v, nil
}

// Cond returns the pivot-based condition estimate.
func (v *VerifiedBandLU) Cond() float64 { return v.cond }

// N returns the system size.
func (v *VerifiedBandLU) N() int { return v.lu.N() }

// Solve computes x with A·x = rhs, verifies the residual, and refines once
// if needed; see VerifiedCholesky.Solve for the contract.
func (v *VerifiedBandLU) Solve(rhs, x []float64) (refined bool, err error) {
	if err := v.lu.Solve(rhs, x); err != nil {
		//lint:tecfan-ignore allocfree -- singular-pivot refusal path: allocates a diagnosis at most once per rejected solve
		return false, &NumError{Op: "bandlu", Residual: math.Inf(1), Tol: v.tol, Cond: v.cond, Err: err}
	}
	res := v.residual(rhs, x)
	if res <= v.tol && floats.AllFinite(x) {
		return false, nil
	}
	if err := v.lu.Solve(v.r, v.d); err != nil {
		//lint:tecfan-ignore allocfree -- refinement-failure refusal path: allocates a diagnosis at most once per rejected solve
		return false, &NumError{Op: "bandlu", Residual: res, Tol: v.tol, Cond: v.cond, Err: err}
	}
	for i := range x {
		x[i] += v.d[i]
	}
	res = v.residual(rhs, x)
	if res <= v.tol && floats.AllFinite(x) {
		return true, nil
	}
	//lint:tecfan-ignore allocfree -- divergence refusal path: allocates a diagnosis at most once per rejected solve
	return true, &NumError{Op: "bandlu", Residual: res, Tol: v.tol, Cond: v.cond, Refinements: 1, Err: ErrDiverged}
}

func (v *VerifiedBandLU) residual(b, x []float64) float64 {
	v.band.MulVec(x, v.ax)
	for i := range v.r {
		v.r[i] = b[i] - v.ax[i]
	}
	return relResidual(v.r, b)
}
