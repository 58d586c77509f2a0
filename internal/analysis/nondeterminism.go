package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// nondetScope is the set of packages whose behavior must be a pure
// function of their inputs: the simulators, experiment drivers, controller
// core, policies, pool planning/merge, systolic estimator, thermal solver,
// and the numeric-defense pair (invariant auditor + fault injector — a
// nondeterministic injector would break the byte-identical recovery the
// crucible entry transient-nan-recovery pins), plus the campaign engine
// and shared schedule loader (the crucible's seed derivation, shrinker, and
// oracles must replay a repro bit-for-bit; process orchestration lives in
// cmd/tecfan-crucible, which is deliberately outside this scope, and the
// episode driver paces through the clockfault seam). One
// stray wall-clock read or global-RNG draw here silently breaks the
// bitwise-identical crash-resume proof (§10) and the byte-identical
// pooled-vs-in-process merge proof (§12).
var nondetScope = regexp.MustCompile(`(^|/)internal/(sim|exp|core|policy|pool|systolic|thermal|numguard|numfault|campaign|schedfile)(/|$)`)

// wallClockFuncs are the time package entry points that read the wall
// clock (or start a wall-clock-driven source). time.Time arithmetic on
// injected values is fine; acquiring "now" inside the package is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "After": true, "AfterFunc": true,
}

// serializationPkgs are packages whose calls inside a map-iteration body
// mark the loop as feeding output or serialization, where Go's randomized
// map order becomes visible nondeterminism.
var serializationPkgs = map[string]bool{
	"fmt": true, "encoding/json": true, "encoding/csv": true,
	"encoding/gob": true, "encoding/binary": true, "io": true, "bufio": true,
}

// Nondeterminism requires the deterministic packages to take time and
// randomness through injected seams (a Now/Clock field, a *rand.Rand), and
// map iteration there to be order-insensitive.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc: "forbids wall-clock reads (time.Now/Since/Until/Tick/...), global math/rand, " +
		"and map iteration that feeds output or serialization inside the deterministic " +
		"packages internal/{sim,exp,core,policy,pool,systolic,thermal}; thread the " +
		"injected clock and *rand.Rand instead, and iterate over sorted keys",
	Run: runNondeterminism,
}

func runNondeterminism(pass *Pass) error {
	if !nondetScope.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Selectors in call position are reported via checkNondetCall with
		// a call-specific message; collect them so the value-reference
		// check below doesn't double-report.
		callees := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					callees[sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.SelectorExpr:
				if !callees[n] {
					checkNondetValueRef(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkNondetValueRef flags time.Now / global math/rand referenced as a
// value (`cfg.Now = time.Now`): the nondeterminism reaches the package the
// moment the default is installed, so even seam fallbacks must carry a
// justified directive.
func checkNondetValueRef(pass *Pass, sel *ast.SelectorExpr) {
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || !isPackageLevel(fn) {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s captured as a value in deterministic package %s; inject the clock from the caller instead of defaulting to the wall clock",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(sel.Pos(),
				"global %s.%s captured as a value in deterministic package %s; use the seeded *rand.Rand threaded through the config",
				fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
		}
	}
}

func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] && isPackageLevel(fn) {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in deterministic package %s; thread the injected clock (a Now func() time.Time seam) instead",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewPCG, ...) build the explicitly
		// seeded sources the seam convention asks for; only the package-level
		// draw functions touch the shared process RNG.
		if isPackageLevel(fn) && !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from the shared process RNG in deterministic package %s; use the seeded *rand.Rand threaded through the config",
				fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map when the body feeds
// a serialization sink (fmt/encoding/io call) or accumulates into a
// variable declared outside the loop — both make Go's randomized map order
// observable in results.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
			serializationPkgs[fn.Pkg().Path()] {
			sink = fn.Pkg().Name() + "." + fn.Name()
			return false
		}
		// append(outer, ...) — accumulation that outlives the loop, so
		// element order follows map order. Exception: appending only the
		// loop key is the first half of the canonical fix (collect keys,
		// sort, range the slice) and must not be flagged, or the analyzer
		// would reject its own recommended remedy.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if declaredOutside(pass.TypesInfo, call.Args[0], rng.Pos(), rng.End()) &&
					!appendsOnlyKey(pass, rng, call) {
					sink = "append to " + types.ExprString(call.Args[0])
					return false
				}
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized but this loop feeds %s; collect and sort the keys first so output is deterministic",
			sink)
	}
}

// appendsOnlyKey reports whether every appended element is exactly the
// loop's key variable — the benign key-collection idiom whose result is a
// permutation the caller is expected to sort.
func appendsOnlyKey(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.ObjectOf(keyID)
	if keyObj == nil || len(call.Args) < 2 {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != keyObj {
			return false
		}
	}
	return true
}
