// Package loader turns `go list -export` output into type-checked
// analysis.Packages for the suite's in-process callers: the analysistest
// harness and TestAnalyzersCleanOnTree. The `go vet -vettool` driver gets
// the same information from the vet.cfg file cmd/go writes (see
// cmd/tecfan-lint); both type-check through analysis.TypeCheck.
//
// Strategy: one `go list -export -deps -json` invocation yields, for every
// package in the build closure, the path of its gc export data. Target
// packages (the non-dep-only ones) are then parsed from source and
// type-checked against their dependencies' export data — exactly how
// cmd/vet drivers load packages, with no dependency outside the standard
// library and the go tool itself.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"tecfan/internal/analysis"
)

// listedPackage is the slice of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir, type-checks every matched (non-dependency)
// package, and returns them sorted by import path.
func Load(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}

	var out []*analysis.Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, name)
		}
		pkg, err := analysis.TypeCheck(p.ImportPath, files, lookup)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		out = append(out, pkg)
	}
	return out, nil
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// GOWORK=off keeps a workspace file above a testdata fixture module
	// from changing what "./..." means.
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("loader: starting go list: %w", err)
	}
	var listed []listedPackage
	dec := json.NewDecoder(outPipe)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("loader: decoding go list output: %w\n%s", err, stderr.String())
		}
		listed = append(listed, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return listed, nil
}
