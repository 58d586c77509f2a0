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
// and reports, and the numfault drill greps those for leaked non-finite
// values. A diagnosis that *describes* a NaN must not trip that tripwire.
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
// every solve can be residual-checked and refined. A is kept in CSR form,
// built by scanning its rows for nonzeros in ascending column order, so the
// residual b − A·x costs O(nnz(A)) (2 425 entries on the 305-node SCC16
// network, against 93 025 dense) and sums each row in the dense order:
// the skipped terms are products with an exact zero, so the residual, and
// with it the refinement verdict, is bitwise the dense one for finite x.
// Each Solve therefore costs O(nnz(L) + nnz(A)).
type VerifiedCholesky struct {
	chol *Cholesky
	a    *CSR
	tol  float64
	cond float64
	// scratch for residual/refinement, sized n — reused so steady-state
	// fixed-point loops and per-step transient solves stay allocation-free.
	ax, r, d []float64
}

// NewVerifiedCholesky factors a and retains a CSR copy of it for residual
// checks. tol ≤ 0 selects DefaultResidualTol.
func NewVerifiedCholesky(a *Dense, tol float64) (*VerifiedCholesky, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	n := ch.N()
	v := &VerifiedCholesky{
		chol: ch,
		a:    csrFromDense(a),
		tol:  tol,
		ax:   make([]float64, n),
		r:    make([]float64, n),
		d:    make([]float64, n),
	}
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
// needed. refined reports whether a refinement step changed x (a fault-free
// system never refines, keeping guarded runs byte-identical). On failure x
// is left as the best attempt but err is a *NumError and callers must not
// use x.
func (v *VerifiedCholesky) Solve(b, x []float64) (refined bool, err error) {
	v.chol.Solve(b, x)
	res := v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return false, nil
	}
	// One step of iterative refinement: solve A·d = r, x += d. With a
	// residual computed in working precision this recovers solves degraded
	// by mild ill-conditioning; anything it cannot fix is genuinely
	// divergent and must be refused, not retried forever.
	v.chol.Solve(v.r, v.d)
	for i := range x {
		x[i] += v.d[i]
	}
	res = v.residual(b, x)
	if res <= v.tol && floats.AllFinite(x) {
		return true, nil
	}
	//lint:tecfan-ignore allocfree -- divergence refusal path: allocates a diagnosis at most once per rejected solve
	return true, &NumError{Op: "cholesky", Residual: res, Tol: v.tol, Cond: v.cond, Refinements: 1, Err: ErrDiverged}
}

// residual fills v.r = b − A·x and returns the relative residual.
func (v *VerifiedCholesky) residual(b, x []float64) float64 {
	v.a.MulVec(x, v.ax)
	for i := range v.r {
		v.r[i] = b[i] - v.ax[i]
	}
	return relResidual(v.r, b)
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
