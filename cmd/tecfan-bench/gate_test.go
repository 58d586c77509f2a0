package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// TestGateBenchmarksExist checks that every gated name is a benchmark
// function in one of gatePackages, so a typo or a rename fails here rather
// than as "missing" in a gate run.
func TestGateBenchmarksExist(t *testing.T) {
	defined := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range gatePackages {
		files, err := filepath.Glob(filepath.Join("..", "..", pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no test files (%v)", pkg, err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					defined[fn.Name.Name] = true
				}
			}
		}
	}
	re := regexp.MustCompile(gateBenchRe)
	for _, n := range gateBenchmarks {
		name := "Benchmark" + n
		if !defined[name] {
			t.Errorf("%s is gated but defined in none of %v", name, gatePackages)
		}
		if !re.MatchString(name) {
			t.Errorf("gateBenchRe %q does not select %s", gateBenchRe, name)
		}
	}
}
