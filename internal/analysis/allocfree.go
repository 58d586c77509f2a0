package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Allocfree enforces the zero-allocation contract on hot-path functions
// (//tecfan:hotpath plus the defaultHotpath table): no make/new, no
// escaping composite literals, no append outside the x = append(x[:0], ...)
// reuse idiom, no string concatenation or fmt calls, no capturing func
// literals, no defer inside loops, no interface boxing of scalars. The
// rules are syntactic: a site the compiler would keep on the stack is
// still reported, and is hoisted or carries a justified directive.
//
// A second, request-path scope flags per-request fmt.Sprintf/Sprint key
// construction in internal/{client,pool,daemon,worker}: not a hot loop,
// but a per-request allocation on the daemon's serving path. Error() and
// String() methods are exempt — they exist to format.
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc: "forbids allocation-inducing constructs (make/new, escaping composite " +
		"literals, non-reuse append, string concat, fmt, capturing closures, " +
		"defer-in-loop, interface boxing of scalars) in //tecfan:hotpath " +
		"functions and the default per-step set; also flags per-request " +
		"fmt.Sprint* key construction in internal/{client,pool,daemon,worker}",
	Run: runAllocfree,
}

// allocfreeReqScope is the request-path (informational-rule) scope: the
// daemon-side packages whose per-request allocations are worth a directive
// but not the full hot-path treatment.
var allocfreeReqScope = regexp.MustCompile(`(^|/)internal/(client|pool|daemon|worker)(/|$)`)

// sprintFuncs are the fmt constructors the request-path rule flags.
var sprintFuncs = map[string]bool{"Sprintf": true, "Sprint": true, "Sprintln": true}

func runAllocfree(pass *Pass) error {
	hs := collectHotFuncs(pass)
	for fn, fd := range hs.funcs {
		checkAllocFree(pass, displayName(fn), fd)
	}
	if allocfreeReqScope.MatchString(pass.Pkg.Path()) {
		checkRequestPathSprints(pass)
	}
	return nil
}

// displayName is the receiver-qualified function name for messages:
// EstimateInto → (*Estimator).EstimateInto.
func displayName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return strings.TrimPrefix(funcKey(fn), fn.Pkg().Path()+".")
}

func checkAllocFree(pass *Pass, name string, fd *ast.FuncDecl) {
	// Loop body ranges, for the defer-in-loop rule.
	var loopRanges [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if b := loopBody(n); b != nil {
			loopRanges = append(loopRanges, [2]token.Pos{b.Pos(), b.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loopRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if inLoop(n.Pos()) {
				pass.Reportf(n.Pos(),
					"defer inside a loop in hot-path function %s allocates a defer record per iteration; hoist it out of the loop", name)
			}
		case *ast.CallExpr:
			checkAllocCall(pass, name, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(),
						"escaping composite literal in hot-path function %s; preallocate the value and reuse it", name)
					return false
				}
			}
		case *ast.CompositeLit:
			checkAllocComposite(pass, name, n)
			return false // inner literals are part of the same allocation
		case *ast.FuncLit:
			if capturesOutside(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(),
					"func literal in hot-path function %s captures variables (closure allocation); restructure as a method on a scratch struct", name)
			}
			return false // don't descend: the closure body is not this function's hot path
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass.TypesInfo, n.X) && !isConstExpr(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in hot-path function %s; precompute the string or format off the hot path", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass.TypesInfo, n.Lhs[0]) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in hot-path function %s; precompute the string or format off the hot path", name)
			}
		}
		return true
	})
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

func checkAllocCall(pass *Pass, name string, call *ast.CallExpr) {
	// Builtins: make/new allocate; append is allowed only in the reuse
	// idiom append(x[:...], ...), which reuses the backing array.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(),
					"make allocates in hot-path function %s; hoist the buffer into a preallocated scratch field", name)
			case "new":
				pass.Reportf(call.Pos(),
					"new allocates in hot-path function %s; hoist the value into a preallocated scratch field", name)
			case "append":
				if len(call.Args) > 0 {
					if _, reuse := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reuse {
						pass.Reportf(call.Pos(),
							"append outside the x = append(x[:0], ...) reuse idiom in hot-path function %s may grow the backing array; reslice a preallocated buffer", name)
					}
				}
			}
			return
		}
	}

	if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s allocates in hot-path function %s; format off the hot path", fn.Name(), name)
		return
	}

	checkBoxedArgs(pass, name, call)
}

// checkBoxedArgs flags scalar (basic-typed) arguments passed to
// interface-typed parameters: each such call boxes the scalar on the heap
// unless the compiler proves otherwise.
func checkBoxedArgs(pass *Pass, name string, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				return // s... passes the slice through, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() != types.UntypedNil {
			pass.Reportf(arg.Pos(),
				"argument boxes a %s into an interface in hot-path function %s; keep hot-path signatures concrete", at, name)
		}
	}
}

func checkAllocComposite(pass *Pass, name string, lit *ast.CompositeLit) {
	t := pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.Reportf(lit.Pos(),
			"composite literal allocates in hot-path function %s; hoist it into a preallocated scratch field", name)
	}
	// Value struct/array literals live on the stack unless their address
	// escapes; &T{...} sites are flagged as escaping composite literals,
	// and explicit builds by the new/make rules.
}

// capturesOutside reports whether the func literal references variables
// declared outside it — the captures that force a closure allocation.
func capturesOutside(info *types.Info, fl *ast.FuncLit) bool {
	captures := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level vars are reached directly, not captured.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captures = true
		}
		return true
	})
	return captures
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	return info.Types[e].Value != nil
}

// checkRequestPathSprints is the request-path informational rule: fmt
// key/ID construction on the daemon's serving path, one allocation per
// request. Fix with strconv/strings.Builder or precomputed keys, or keep
// with a justified directive.
func checkRequestPathSprints(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "Error" || fd.Name.Name == "String" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "fmt" && sprintFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"per-request fmt.%s key construction in %s; use strconv/strings.Builder or precompute the key, or justify with a tecfan-ignore directive",
						fn.Name(), pass.Pkg.Path())
				}
				return true
			})
		}
	}
}
