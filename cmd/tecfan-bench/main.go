// Command tecfan-bench regenerates every table and figure of the paper's
// evaluation section and writes them to stdout (or a file):
//
//	tecfan-bench                  # everything at a reduced scale
//	tecfan-bench -exp table1      # one experiment
//	tecfan-bench -scale 1 -trace 600   # full paper-scale run
//
// Experiments: table1, fig4, fig5, fig6 (one run prints both), fig7, hw,
// ablate, mapping, timescales, scaling, mix, oraclegap, report, and all.
// "all" runs every experiment except report, which repeats them all as one
// document and runs only when asked for.
//
// With -gobench it instead becomes the performance regression gate over
// the Go micro-benchmarks (see gate.go and scripts/bench_gate.sh):
//
//	tecfan-bench -gobench -emit BENCH_13.json          # record a baseline
//	tecfan-bench -gobench -gate -baseline BENCH_13.json  # CI gate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tecfan"
	"tecfan/internal/cmdutil"
)

func main() {
	which := flag.String("exp", "all", "experiment: table1, fig4, fig5, fig6, fig7, hw, ablate, mapping, timescales, scaling, mix, oraclegap, report, all")
	scale := flag.Float64("scale", 0.25, "16-core instruction-budget scale (1 = paper length)")
	traceSec := flag.Int("trace", 600, "Fig. 7 per-core trace seconds (600 = paper's 10 min)")
	out := flag.String("o", "", "output file (default stdout)")

	gobench := flag.Bool("gobench", false, "run the Go micro-benchmarks as the perf gate instead of the paper experiments")
	var gf gateFlags
	flag.BoolVar(&gf.gate, "gate", false, "with -gobench: compare against -baseline and exit 1 on regression")
	flag.StringVar(&gf.baseline, "baseline", "", "baseline BENCH JSON `file` for -gate")
	flag.StringVar(&gf.emit, "emit", "", "write the measured BENCH JSON to `file`")
	flag.IntVar(&gf.runs, "runs", 3, "benchmark repetitions; the per-metric median gates")
	flag.StringVar(&gf.benchtime, "benchtime", "100ms", "go test -benchtime value (time-based, so ns-scale and ms-scale kernels measure equally long)")
	flag.StringVar(&gf.benchRe, "bench", gateBenchRe, "go test -bench regex (default: the hot-path kernel set)")
	flag.Float64Var(&gf.nsTol, "ns-tol", 0.15, "ns/op tolerance fraction on a matching CPU")
	flag.Parse()

	if *gobench {
		if gf.baseline != "" {
			if err := cmdutil.CheckFileExists("baseline", gf.baseline); err != nil {
				fatal(err)
			}
		}
		os.Exit(runGoBench(gf, flag.Args()))
	}

	valid := []string{"table1", "fig4", "fig5", "fig6", "fig7", "hw", "ablate",
		"mapping", "timescales", "scaling", "mix", "oraclegap", "report", "all"}
	known := false
	for _, v := range valid {
		known = known || v == *which
	}
	if !known {
		fatal(fmt.Errorf("unknown experiment %q (valid: %s)", *which, strings.Join(valid, ", ")))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	sys, err := tecfan.New(tecfan.WithScale(*scale))
	if err != nil {
		fatal(err)
	}

	// Ctrl-C / SIGTERM cancels the in-flight experiment at its next control
	// boundary; sweeps flush the rows they finished before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		fmt.Fprintf(w, "==== %s ====\n", strings.ToUpper(name))
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(w, "(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		rows, err := sys.Table1Context(ctx)
		// Partial rows (an interrupted sweep) are still worth printing.
		if len(rows) > 0 {
			tecfan.WriteTable1(w, rows)
		}
		return err
	})
	run("fig4", func() error {
		cases, err := sys.Fig4Context(ctx)
		if len(cases) > 0 {
			tecfan.WriteFig4(w, cases)
		}
		return err
	})
	// Fig. 5 and Fig. 6 share the same runs: one runner prints both, under
	// whichever of fig5, fig6 or fig56 was asked for.
	fig56 := "fig56"
	if *which == "fig5" || *which == "fig6" {
		fig56 = *which
	}
	run(fig56, func() error {
		r, err := sys.Fig56Context(ctx)
		if err != nil {
			return err
		}
		tecfan.WriteFig5(w, r)
		tecfan.WriteFig6(w, r)
		return nil
	})
	run("fig7", func() error {
		rows, err := tecfan.Fig7Context(ctx, *traceSec)
		if err != nil {
			return err
		}
		tecfan.WriteFig7(w, rows)
		return nil
	})
	run("hw", func() error {
		r, err := sys.HardwareCost()
		if err != nil {
			return err
		}
		tecfan.WriteHardwareCost(w, r)
		return nil
	})
	// The report duplicates every experiment, so it only runs when asked
	// for explicitly (never as part of "all").
	if *which == "report" {
		start := time.Now()
		if err := sys.WriteReportContext(ctx, w, tecfan.ReportOptions{TraceSeconds: *traceSec, Now: time.Now}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "(report in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	run("oraclegap", func() error {
		for _, sev := range []float64{2, 6, 10} {
			r, err := tecfan.OracleGap(sev)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "severity %.0f °C:\n", sev)
			tecfan.WriteOracleGap(w, r)
		}
		return nil
	})
	run("mix", func() error {
		r, err := sys.MixStudy()
		if err != nil {
			return err
		}
		tecfan.WriteMixStudy(w, r)
		return nil
	})
	run("scaling", func() error {
		rows, err := tecfan.ControllerScaling([]int{1, 2, 3, 4, 6})
		if err != nil {
			return err
		}
		tecfan.WriteScaling(w, rows)
		return nil
	})
	run("timescales", func() error {
		rows, err := sys.Timescales()
		if err != nil {
			return err
		}
		tecfan.WriteTimescales(w, rows)
		return nil
	})
	run("mapping", func() error {
		rows, err := sys.MappingStudy("cholesky", "TECfan")
		if err != nil {
			return err
		}
		tecfan.WriteMappingStudy(w, "cholesky", rows)
		return nil
	})
	run("ablate", func() error {
		rows, prows, err := sys.Ablations("cholesky", []float64{1e-3, 2e-3, 4e-3, 8e-3})
		if err != nil {
			return err
		}
		tecfan.WriteAblation(w, "knob ablation (cholesky/16, normalized to base)", rows)
		tecfan.WriteAblation(w, "\ncontrol-period ablation (cholesky/16)", prows)
		crows, err := sys.CurrentAblation([]float64{2, 4, 6, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		tecfan.WriteCurrentAblation(w, crows)
		aligned, uniform, err := sys.PlacementAblation()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nTEC placement: hot-row aligned relief %.2f °C vs uniform grid %.2f °C\n",
			aligned, uniform)
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfan-bench:", err)
	os.Exit(1)
}
