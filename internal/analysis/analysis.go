// Package analysis is the repo's static-invariant suite: a small,
// stdlib-only re-creation of the slice of golang.org/x/tools/go/analysis
// that tecfan needs, plus the nine analyzers that mechanically enforce the
// conventions every headline proof in this repo leans on — deterministic
// sim/exp paths (bitwise-identical crash resume, §10), context discipline
// in long loops (<1-control-period cancellation, §10), checkpoint-only
// state writes (§10/§12), no I/O under locks (the §11 breaker-race class),
// epsilon-compared floats, monotonic-time discipline in lease arithmetic
// (§17), and the hot-path allocation discipline (§18: allocfree,
// scratchalias, hotcall keep the 2 ms control loop at zero allocations).
//
// The x/tools analysis framework is deliberately not imported: the repo is
// zero-dependency by policy, so Analyzer/Pass/Diagnostic are re-declared
// here with the same shape, and cmd/tecfan-lint implements the cmd/go vet
// driver protocol directly (see cmd/tecfan-lint and DESIGN.md §13).
//
// Findings can be suppressed, one line at a time, with an in-source
// directive that must carry a justification:
//
//	x := time.Now() //lint:tecfan-ignore nondeterminism -- clock seam default; callers inject
//
// A directive with an empty justification is itself a finding, so the
// escape hatch cannot be used silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. Mirrors
// golang.org/x/tools/go/analysis.Analyzer (minus facts, which no tecfan
// analyzer needs).
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is the one-paragraph catalog entry (see DESIGN.md §13).
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one raw finding, before ignore-directive filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one type-checked package, as TypeCheck returns it.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// TypeCheck parses goFiles (absolute paths), keeping comments, and
// type-checks them as package importPath, resolving every import from the
// gc export data that lookup opens. It is the one type-check path of the
// suite: the loader feeds it `go list -export` output, and
// cmd/tecfan-lint's vet driver feeds it the vet.cfg file cmd/go writes.
func TypeCheck(importPath string, goFiles []string, lookup importer.Lookup) (*Package, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(goFiles))
	for _, path := range goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Finding is one surviving diagnostic, positioned and attributed.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// DirectiveAnalyzerName attributes findings about malformed
// //lint:tecfan-ignore directives themselves; it is reserved and cannot be
// suppressed.
const DirectiveAnalyzerName = "ignore-directive"

// RunPackage runs the analyzers over one package, applies the
// //lint:tecfan-ignore directives, and returns the surviving findings plus
// any directive-format findings, sorted by position. validNames guards
// directives against typos: a directive naming an analyzer outside the set
// is reported rather than silently failing to suppress. Pass nil to accept
// the full registry (All).
func RunPackage(pkg *Package, analyzers []*Analyzer, validNames []string) ([]Finding, error) {
	if validNames == nil {
		for _, a := range All() {
			validNames = append(validNames, a.Name)
		}
	}
	known := make(map[string]bool, len(validNames))
	for _, n := range validNames {
		known[n] = true
	}

	directives := collectDirectives(pkg.Fset, pkg.Files)

	var findings []Finding
	for _, d := range directives {
		if d.Justification == "" {
			findings = append(findings, newFinding(DirectiveAnalyzerName, pkg.Fset.Position(d.Pos),
				"tecfan-ignore directive needs a justification: //lint:tecfan-ignore <analyzer> -- <why>"))
		} else if !known[d.Analyzer] {
			findings = append(findings, newFinding(DirectiveAnalyzerName, pkg.Fset.Position(d.Pos),
				fmt.Sprintf("tecfan-ignore names unknown analyzer %q", d.Analyzer)))
		}
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		var diags []Diagnostic
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if suppressed(directives, a.Name, pos) {
				continue
			}
			findings = append(findings, newFinding(a.Name, pos, d.Message))
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

func newFinding(analyzer string, pos token.Position, msg string) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  msg,
	}
}
