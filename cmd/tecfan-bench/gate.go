package main

// The -gobench mode turns tecfan-bench into the repo's performance gate:
// it runs the Go micro-benchmarks (not the paper experiments) -runs times,
// reduces to per-metric medians, and either emits a BENCH_*.json summary
// or compares against a committed baseline. scripts/bench_gate.sh and the
// CI bench-gate job are thin wrappers over this.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"

	"tecfan/internal/benchgate"
)

// gatePackages is the default benchmark surface: the packages holding the
// hot-path kernels DESIGN.md §18 polices. The root package carries the
// controller, solver, and estimator benchmarks; internal/sim the per-step
// kernel; internal/linalg and internal/thermal the substrate;
// internal/server the exhaustive Fig. 7 Oracle searches.
var gatePackages = []string{".", "./internal/sim", "./internal/linalg", "./internal/thermal", "./internal/server"}

// gateBenchRe is the default -bench selection: the hot-path kernels and
// their substrate, by exact name. The root package's table/figure
// benchmarks (BenchmarkTable1, BenchmarkFig4, ...) regenerate whole paper
// experiments per iteration and are deliberately excluded — they document
// end-to-end cost, not per-period hot-path cost, and would make the gate
// minutes-slow and noisy.
const gateBenchRe = "^Benchmark(Step|SteadySolve|TransientStep|Systolic|TECfanControl|BandEstimatorEval|" +
	"CholeskyFactor305|CholeskySolve305|CGGridScale|BandMulVec18|BandLUSolve18|" +
	"NetworkAssembly16|TransientFactor16|SteadyWithTEC16|GridSteady16|OracleDecide|OraclePDecide)$"

type gateFlags struct {
	gate      bool
	baseline  string
	emit      string
	runs      int
	benchtime string
	benchRe   string
	nsTol     float64
}

// runGoBench executes the gate mode and returns the process exit code.
func runGoBench(f gateFlags, pkgs []string) int {
	if len(pkgs) == 0 {
		pkgs = gatePackages
	}
	if f.runs < 1 {
		fatal(fmt.Errorf("-runs must be >= 1, got %d", f.runs))
	}
	var base *benchgate.Baseline
	if f.gate {
		if f.baseline == "" {
			fatal(fmt.Errorf("-gate requires -baseline"))
		}
		var err error
		if base, err = benchgate.Load(f.baseline); err != nil {
			fatal(err)
		}
	}

	runs := make([]map[string]benchgate.Metrics, 0, f.runs)
	for i := 0; i < f.runs; i++ {
		fmt.Fprintf(os.Stderr, "tecfan-bench: gobench run %d/%d\n", i+1, f.runs)
		out, err := goBenchOnce(f, pkgs)
		if err != nil {
			fatal(err)
		}
		m, err := benchgate.ParseGoBench(bytes.NewReader(out))
		if err != nil {
			fatal(err)
		}
		if len(m) == 0 {
			fatal(fmt.Errorf("no benchmarks matched -bench %q in %v", f.benchRe, pkgs))
		}
		runs = append(runs, m)
	}
	cur := &benchgate.Baseline{
		Schema:     benchgate.Schema,
		CPU:        benchgate.CPUFingerprint(),
		Benchmarks: benchgate.Median(runs),
	}

	if f.emit != "" {
		w, err := os.Create(f.emit)
		if err != nil {
			fatal(err)
		}
		if err := cur.Save(w); err != nil {
			fatal(err)
		}
		if err := w.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tecfan-bench: wrote %d benchmarks to %s\n", len(cur.Benchmarks), f.emit)
	} else if !f.gate {
		if err := cur.Save(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if !f.gate {
		return 0
	}
	regs := benchgate.Compare(base, cur, f.nsTol)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "tecfan-bench: gate clean: %d benchmarks vs %s (cpu match: %v)\n",
			len(base.Benchmarks), f.baseline, base.CPU == cur.CPU)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "tecfan-bench: REGRESSION", r.String())
	}
	fmt.Fprintf(os.Stderr, "tecfan-bench: %d regression(s) vs %s\n", len(regs), f.baseline)
	return 1
}

// goBenchOnce runs one `go test -bench` sweep over the packages and
// returns its combined output.
func goBenchOnce(f gateFlags, pkgs []string) ([]byte, error) {
	args := []string{"test", "-run", "^$", "-bench", f.benchRe,
		"-benchmem", "-benchtime", f.benchtime, "-count", "1"}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench (run output above): %w", err)
	}
	return out.Bytes(), nil
}
