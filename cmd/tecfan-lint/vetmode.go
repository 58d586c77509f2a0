package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tecfan/internal/analysis"
)

// vetConfig mirrors the subset of cmd/go's internal vetConfig that this
// driver consumes. cmd/go serializes it to <objdir>/vet.cfg and passes the
// path as the sole positional argument.
type vetConfig struct {
	ImportPath string   // canonical import path
	GoFiles    []string // absolute paths of the package's Go sources

	ImportMap   map[string]string // source import path → canonical package path
	PackageFile map[string]string // canonical package path → export data file

	VetxOnly   bool   // facts-only run for a dependency: nothing to do here
	VetxOutput string // where cmd/go expects the (empty) facts file

	SucceedOnTypecheckFailure bool // cmd/go asks us to stay quiet on broken packages
}

// vetMode runs the suite over one package described by a vet.cfg file and
// returns the process exit code.
func vetMode(cfgPath string, asJSON bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", cfgPath, err))
	}

	// cmd/go caches per-package results keyed on the facts file; write it
	// even though no tecfan analyzer exports facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatal(err)
		}
	}
	// Dependencies are analyzed when cmd/go reaches them as targets;
	// facts-only runs have nothing further to produce.
	if cfg.VetxOnly {
		return 0
	}

	// cmd/go maps every source import to its canonical package path; the
	// two differ only for vendored packages.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, err := analysis.TypeCheck(cfg.ImportPath, cfg.GoFiles, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	findings, err := analysis.RunPackage(pkg, analysis.All(), nil)
	if err != nil {
		fatal(err)
	}
	// Diagnostics go to stderr in driver mode: cmd/go interleaves them
	// with its own "# package" headers.
	return emit(os.Stderr, findings, asJSON)
}
