package tecfan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names that satisfy standard-library interfaces
// (fmt.Stringer, error, errors.Unwrap, encoding/json): the standard library
// calls them, so no use in this module's code is expected.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestNoUnusedExports lists every exported declaration of an internal
// package whose name no non-test Go file in the module mentions, apart from
// its own declaration. Exported code that only tests call is kept out of the
// product; what stays anyway (test support, code a planned change puts into
// production) is listed with its reason in testdata/unused_exports.txt, so
// adding to or deleting from that set is a reviewed change, never a silent
// one.
//
// The check is by name, so a name that is also used for something else
// hides a dead declaration; it is a lower bound. It makes one pass: code
// used only by a declaration deleted on this pass shows up on the next run.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier name -> occurrences outside its declarations
	type decl struct {
		key  string // package dir + "." + [Recv "."] + Name
		name string
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declIdents := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		scan := f.Name.Name != "main" && dir != "."
		add := func(id *ast.Ident, recv string) {
			declIdents[id] = true
			if scan && id.IsExported() {
				decls = append(decls, decl{dir + "." + recv + id.Name, id.Name})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "")
				} else if !stdlibMethods[d.Name.Name] {
					add(d.Name, recvName(d.Recv.List[0].Type)+".")
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if uses[d.name] == 0 {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	want, err := os.ReadFile("testdata/unused_exports.txt")
	if err != nil {
		t.Fatal(err)
	}
	var allowed []string
	for _, line := range strings.Split(string(want), "\n") {
		if name, _, _ := strings.Cut(line, "#"); strings.TrimSpace(name) != "" {
			allowed = append(allowed, strings.TrimSpace(name))
		}
	}
	if strings.Join(unused, "\n") != strings.Join(allowed, "\n") {
		t.Fatalf("the set of exported declarations no non-test code uses changed; delete the new ones, "+
			"or list each with its reason in testdata/unused_exports.txt. The set is now:\n%s",
			strings.Join(unused, "\n"))
	}
}

// recvName returns the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
