package main

// The -gobench REV mode is the performance gate over the hot-path
// micro-benchmarks: the working tree against revision REV, in interleaved
// pairs (DESIGN.md §18). internal/benchgate holds the verdict.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"tecfan/internal/benchgate"
)

// gatePackages is the benchmark surface: the packages holding the hot-path
// kernels DESIGN.md §18 polices. The root package carries the controller,
// solver, and estimator benchmarks; internal/sim the per-step kernel;
// internal/linalg and internal/thermal the substrate; internal/server the
// exhaustive Fig. 7 Oracle searches.
var gatePackages = []string{".", "./internal/sim", "./internal/linalg", "./internal/thermal", "./internal/server"}

// gateBenchmarks are the gated benchmarks, without their Benchmark prefix:
// the hot-path kernels and their substrate. The root package's table/figure
// benchmarks (BenchmarkTable1, BenchmarkFig4, ...) regenerate whole paper
// experiments per iteration and are left out: they document end-to-end
// cost, not per-period hot-path cost, and would make the gate minutes-slow
// and noisy. A name listed here that does not run fails the gate.
var gateBenchmarks = []string{"Step", "SteadySolve", "TransientStep", "Systolic", "TECfanControl", "BandEstimatorEval",
	"CholeskyFactor305", "CholeskySolve305", "CGGridScale", "BandMulVec18", "BandLUSolve18",
	"NetworkAssembly16", "TransientFactor16", "SteadyWithTEC16", "GridSteady16", "OracleDecide", "OraclePDecide"}

// gateBenchRe selects exactly gateBenchmarks.
var gateBenchRe = "^Benchmark(" + strings.Join(gateBenchmarks, "|") + ")$"

const (
	// gatePairs is the number of interleaved parent/change pairs: enough
	// for the nine-in-ten rule to mean something, and for quartiles.
	gatePairs = 10
	// gateBenchtime is time-based, so ns-scale and ms-scale kernels
	// measure equally long.
	gateBenchtime = "100ms"
)

// runGate runs the gate against rev and returns the process exit code.
func runGate(rev string) int {
	start := time.Now()
	verdicts, err := gate(rev)
	if err != nil {
		fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tparent ns/op\tchange ns/op\tslower\tparent IQR\tallocs/op\tverdict")
	failed := 0
	for _, v := range verdicts {
		verdict := "ok"
		switch {
		case len(v.Failures) > 0:
			failed++
			verdict = "FAIL: " + strings.Join(v.Failures, "; ")
		case v.New:
			verdict = "new: not in the parent, not judged"
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%d/%d\t%.1f\t%g -> %g\t%s\n", v.Name, v.Parent.NsPerOp, v.Change.NsPerOp,
			v.Slower, gatePairs, v.IQR, v.Parent.AllocsPerOp, v.Change.AllocsPerOp, verdict)
	}
	tw.Flush()
	took := time.Since(start).Round(time.Second)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tecfan-bench: %d of %d benchmarks regressed against %s (%v)\n", failed, len(verdicts), rev, took)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tecfan-bench: gate clean: %d benchmarks, %d pairs against %s (%v)\n", len(verdicts), gatePairs, rev, took)
	return 0
}

// gate measures the working tree against rev and judges every gated name.
func gate(rev string) ([]benchgate.Verdict, error) {
	tmp, err := os.MkdirTemp("", "tecfan-gate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	parentDir := filepath.Join(tmp, "src")
	if err := os.Mkdir(parentDir, 0o755); err != nil {
		return nil, err
	}
	if err := run(".", "bash", "-c", `set -o pipefail; git archive --end-of-options "$0" | tar -x -C "$1"`, rev, parentDir); err != nil {
		return nil, err
	}
	parent, err := buildTests(parentDir, filepath.Join(tmp, "parent"))
	if err != nil {
		return nil, err
	}
	change, err := buildTests(".", filepath.Join(tmp, "change"))
	if err != nil {
		return nil, err
	}

	pairs := make([]benchgate.Pair, gatePairs)
	for i := range pairs {
		fmt.Fprintf(os.Stderr, "tecfan-bench: pair %d/%d\n", i+1, gatePairs)
		pairs[i] = benchgate.Pair{Parent: map[string]benchgate.Metrics{}, Change: map[string]benchgate.Metrics{}}
		for k, pkg := range gatePackages {
			for side := range 2 {
				if (i+side)%2 == 0 { // the parent goes first in even pairs
					err = runBench(filepath.Join(parentDir, pkg), parent[k], pairs[i].Parent)
				} else {
					err = runBench(pkg, change[k], pairs[i].Change)
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}
	names := make([]string, len(gateBenchmarks))
	for i, n := range gateBenchmarks {
		names[i] = "Benchmark" + n
	}
	return benchgate.Judge(names, pairs), nil
}

// buildTests builds the test binary of each gate package under root into
// binDir, with the same flags on both sides; -trimpath keeps the two source
// roots out of the binaries.
func buildTests(root, binDir string) ([]string, error) {
	bins := make([]string, len(gatePackages))
	for k, pkg := range gatePackages {
		bins[k] = filepath.Join(binDir, fmt.Sprintf("%d.test", k))
		if err := run(root, "go", "test", "-c", "-trimpath", "-o", bins[k], pkg); err != nil {
			return nil, err
		}
	}
	return bins, nil
}

// runBench runs one test binary's gated benchmarks from its package
// directory and adds what it measured to into.
func runBench(dir, bin string, into map[string]benchgate.Metrics) error {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", gateBenchRe,
		"-test.benchmem", "-test.benchtime", gateBenchtime, "-test.timeout", "10m")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s in %s: %w\n%s", filepath.Base(bin), dir, err, out.Bytes())
	}
	m, err := benchgate.ParseGoBench(&out)
	if err != nil {
		return err
	}
	for name, v := range m {
		into[name] = v
	}
	return nil
}

// run runs one tool in dir, its output passed through to stderr.
func run(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return nil
}
