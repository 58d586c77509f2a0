package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The hot-path discipline (DESIGN.md §18): functions on the 2 ms control
// loop's per-step path must not allocate, must not retain the scratch
// buffers they are lent, and may only call other hot-path or whitelisted
// leaf functions. Membership in the hot set comes from two sources, both
// resolved here so allocfree, scratchalias, and hotcall can never disagree:
//
//   - a //tecfan:hotpath annotation on the function declaration, and
//   - defaultHotpath, the curated table of per-step functions in
//     internal/{core,sim,linalg,thermal} that anchors the set even if an
//     annotation is dropped in a refactor.
//
// The table doubles as hotcall's cross-package oracle: the framework has no
// facts mechanism, so a caller in internal/sim cannot see an annotation in
// internal/thermal's source — but both can see this table.

// HotpathDirective is the declaration comment that marks a function hot.
const HotpathDirective = "//tecfan:hotpath"

// defaultHotpath lists the per-step kernels by qualified name (as produced
// by funcKey). Editing the hot set is a reviewed change to this file, not a
// drive-by comment deletion.
var defaultHotpath = map[string]bool{
	// thermal: the per-step integrator, the per-candidate steady solve and
	// the lockstep fixed point that runs a block of candidates at once.
	"tecfan/internal/thermal.(*Transient).Step":         true,
	"tecfan/internal/thermal.(*Network).SteadyInto":     true,
	"tecfan/internal/thermal.(*Network).SteadyBatch":    true,
	"tecfan/internal/thermal.(*Network).steadyLockstep": true,
	"tecfan/internal/thermal.(*Network).baseRHS":        true,
	"tecfan/internal/thermal.(*Network).peltierRHS":     true,
	"tecfan/internal/thermal.(*Network).TECPower":       true,
	"tecfan/internal/thermal.(*Network).PeakDie":        true,
	"tecfan/internal/thermal.RCInterp":                  true,

	// linalg: every solve the loop reaches.
	"tecfan/internal/linalg.(*Cholesky).Solve":              true,
	"tecfan/internal/linalg.(*Cholesky).SolveBlock":         true,
	"tecfan/internal/linalg.(*VerifiedCholesky).Solve":      true,
	"tecfan/internal/linalg.(*VerifiedCholesky).SolveBlock": true,
	"tecfan/internal/linalg.(*VerifiedCholesky).verify":     true,
	"tecfan/internal/linalg.(*VerifiedCholesky).residual":   true,
	"tecfan/internal/linalg.(*BandLU).Solve":                true,
	"tecfan/internal/linalg.(*VerifiedBandLU).Solve":        true,
	"tecfan/internal/linalg.(*VerifiedBandLU).residual":     true,
	"tecfan/internal/linalg.(*CSR).MulVec":                  true,
	"tecfan/internal/linalg.(*Banded).MulVec":               true,
	"tecfan/internal/linalg.relResidual":                    true,
	"tecfan/internal/linalg.Fill":                           true,

	// core: the per-candidate model evaluation, the down-hill walk's
	// batched fold over a block of DVFS trials, and the per-core band
	// solve.
	"tecfan/internal/core.(*Estimator).EstimateInto":   true,
	"tecfan/internal/core.(*Estimator).bestOfBatch":    true,
	"tecfan/internal/core.(*Estimator).solveBatch":     true,
	"tecfan/internal/core.(*Estimator).finish":         true,
	"tecfan/internal/core.(*Estimator).candidatePower": true,
	"tecfan/internal/core.(*BandEstimator).EvalCore":   true,

	// sim: the extracted steady-state step kernel.
	"tecfan/internal/sim.(*stepLoop).step":        true,
	"tecfan/internal/sim.(*stepLoop).stepAttempt": true,
}

// leafFuncs are non-hot functions the hot path may call: tiny accessors and
// accumulators that are themselves allocation-free by inspection (and by the
// AllocsPerRun proofs over their callers), but that don't warrant the full
// allocfree/scratchalias treatment. Interface methods are listed under the
// interface's qualified name.
var leafFuncs = map[string]bool{
	// power model accessors.
	"tecfan/internal/power.(*DVFSTable).ScaleFromMax": true,
	"tecfan/internal/power.(*DVFSTable).DynScale":     true,
	"tecfan/internal/power.(*DVFSTable).FreqRatio":    true,
	"tecfan/internal/power.(*DVFSTable).Max":          true,
	"tecfan/internal/power.(*DVFSTable).Clamp":        true,
	"tecfan/internal/power.Leakage.PerComponent":      true,

	// workload trace evaluation.
	"tecfan/internal/workload.(*PowerMap).AddDynPower": true,
	"tecfan/internal/workload.(*Benchmark).IPS":        true,

	// perf accumulation.
	"tecfan/internal/perf.(*Accumulator).Add": true,
	"tecfan/internal/perf.ScaleIPS":           true,
	"tecfan/internal/perf.EPI":                true,

	// numguard: healthy-path checks allocate only when a violation fires.
	"tecfan/internal/numguard.(*Auditor).CheckTemps":     true,
	"tecfan/internal/numguard.(*Auditor).CheckPowerVec":  true,
	"tecfan/internal/numguard.(*Auditor).CheckChipPower": true,
	"tecfan/internal/numguard.(*Auditor).AddEnergy":      true,
	"tecfan/internal/numguard.(*Auditor).AddRefinements": true,
	"tecfan/internal/numguard.(*Auditor).NoteHeld":       true,
	"tecfan/internal/numguard.(*Auditor).NoteRecovered":  true,

	// tec drive-state accessors and in-place mutators.
	"tecfan/internal/tec.(*State).Advance":       true,
	"tecfan/internal/tec.(*State).Current":       true,
	"tecfan/internal/tec.(*State).Engaged":       true,
	"tecfan/internal/tec.(*State).Placement":     true,
	"tecfan/internal/tec.(*State).Len":           true,
	"tecfan/internal/tec.(*State).SetCurrent":    true,
	"tecfan/internal/tec.(*State).SetMask":       true,
	"tecfan/internal/tec.(*State).Set":           true,
	"tecfan/internal/tec.(*State).Reset":         true,
	"tecfan/internal/tec.Device.JouleHeat":       true,
	"tecfan/internal/tec.Device.PumpCoefficient": true,
	"tecfan/internal/tec.Device.Power":           true,

	// linalg element/row accessors: pure index arithmetic into owned
	// storage (Row returns a view, which the hot callers use in place).
	"tecfan/internal/linalg.(*Dense).Row": true,
	"tecfan/internal/linalg.(*Dense).At":  true,

	// linalg block-solve row kernels: on amd64 they are SSE2 assembly,
	// declared //go:noescape without a Go body for the analyzers to
	// inspect. They only read and write the caller's slices and allocate
	// nothing (TestSolveBlockZeroAllocs); elsewhere they wrap the Go
	// kernels, which are //tecfan:hotpath themselves.
	"tecfan/internal/linalg.blockForwardRow":  true,
	"tecfan/internal/linalg.blockBackRow":     true,
	"tecfan/internal/linalg.blockResidualRow": true,

	// fan and floorplan accessors.
	"tecfan/internal/fan.(*Model).Power":       true,
	"tecfan/internal/fan.(*Model).Conductance": true,
	"tecfan/internal/floorplan.(*Chip).CoreOf": true,

	// thermal factor cache: G depends only on the fan level (TEC terms
	// fold into the RHS), so the banded/dense Cholesky factor is cached
	// per actuator configuration — a map hit on the steady path, an
	// allocation only when the fan level first appears (cold, amortized).
	"tecfan/internal/thermal.(*Network).steadyFactor": true,

	// thermal block lease: a free-list pop or push under a mutex. A lease
	// allocates only when the list is empty, once per concurrent batch
	// (cold, amortized).
	"tecfan/internal/thermal.(*Network).LeaseSteadyBlock":  true,
	"tecfan/internal/thermal.(*Network).ReturnSteadyBlock": true,

	// thermal accessors reached from hot callers.
	"tecfan/internal/thermal.(*Network).NumDie":            true,
	"tecfan/internal/thermal.(*Network).NumNodes":          true,
	"tecfan/internal/thermal.(*Network).SpreaderNode":      true,
	"tecfan/internal/thermal.(*Transient).TakeRefinements": true,

	// sim: the numerical-chaos seam, nil on every measured path.
	"tecfan/internal/sim.(NumFaultInjector).CorruptPower": true,
	"tecfan/internal/sim.(NumFaultInjector).CorruptTemps": true,
}

// leafPkgs are packages whose every function is a permitted leaf: pure math
// and the epsilon-comparison helpers.
var leafPkgs = map[string]bool{
	"math":                   true,
	"tecfan/internal/floats": true,
}

// hotSet resolves the hot functions of one package: the union of the default
// table (restricted to this package) and the in-source annotations. Keys are
// both the *types.Func objects (for body lookup) and qualified names.
type hotSet struct {
	funcs map[*types.Func]*ast.FuncDecl
}

// collectHotFuncs scans the pass's files for hot function declarations.
func collectHotFuncs(pass *Pass) *hotSet {
	hs := &hotSet{funcs: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if hasHotpathComment(fd) || defaultHotpath[funcKey(fn)] {
				hs.funcs[fn] = fd
			}
		}
	}
	return hs
}

// hasHotpathComment reports whether the declaration's doc comment carries
// the //tecfan:hotpath directive.
func hasHotpathComment(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotpathDirective) {
			return true
		}
	}
	return false
}

// funcKey returns the qualified name of fn in the defaultHotpath/leafFuncs
// spelling: pkgpath.Name for package-level functions, pkgpath.(*Recv).Name
// or pkgpath.Recv.Name for methods, and pkgpath.(Iface).Name for interface
// methods.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	ptr := false
	if p, okp := rt.(*types.Pointer); okp {
		rt, ptr = p.Elem(), true
	}
	var recv string
	switch t := rt.(type) {
	case *types.Named:
		recv = t.Obj().Name()
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			return fn.Pkg().Path() + ".(" + recv + ")." + fn.Name()
		}
	case *types.Interface:
		// Method expression on an anonymous interface: fall back to the name.
		return fn.Pkg().Path() + "." + fn.Name()
	default:
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if ptr {
		return fn.Pkg().Path() + ".(*" + recv + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

// isHotCallee reports whether fn is an acceptable callee from hot code: hot
// itself (by table, or by annotation when declared in the same package), or
// a whitelisted leaf.
func isHotCallee(hs *hotSet, fn *types.Func) bool {
	if _, ok := hs.funcs[fn]; ok {
		return true
	}
	key := funcKey(fn)
	if defaultHotpath[key] || leafFuncs[key] {
		return true
	}
	return fn.Pkg() != nil && leafPkgs[fn.Pkg().Path()]
}
