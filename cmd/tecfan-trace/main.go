// Command tecfan-trace dumps the per-control-period trace of one run as CSV
// (time, peak temperature, chip power, fan level, TECs on, mean DVFS) — the
// raw series behind the Fig. 4 style time plots.
//
//	tecfan-trace -bench lu -threads 16 -policy Fan+TEC -fan 2 > trace.csv
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"tecfan"
	"tecfan/internal/cmdutil"
	"tecfan/internal/numfault"
)

func main() {
	bench := flag.String("bench", "cholesky", "benchmark name")
	threads := flag.Int("threads", 16, "thread count (16 or 4)")
	policy := flag.String("policy", "TECfan", "policy name")
	fanLevel := flag.Int("fan", 1, "fan speed level, 1 = fastest")
	scale := flag.Float64("scale", 1.0, "instruction-budget scale")
	nfSchedule := flag.String("numfault-schedule", "", "JSON numerical-fault schedule file (numeric chaos)")
	healthOut := flag.String("numeric-health", "", "write the run's NumericHealth JSON to this file")
	flag.Parse()

	opts := []tecfan.Option{tecfan.WithScale(*scale)}
	if *nfSchedule != "" {
		sched, err := numfault.ParseScheduleFile(*nfSchedule)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, tecfan.WithNumFaults(sched))
	}
	sys, err := tecfan.New(opts...)
	if err != nil {
		fatal(err)
	}
	if err := cmdutil.CheckBench(sys, *bench, *threads); err != nil {
		fatal(err)
	}
	if err := cmdutil.CheckPolicy(sys, *policy); err != nil {
		fatal(err)
	}
	if *fanLevel < 1 || *fanLevel > sys.FanLevels() {
		fatal(fmt.Errorf("fan level %d out of range (valid: 1..%d)", *fanLevel, sys.FanLevels()))
	}
	// Ctrl-C / SIGTERM cancels at the next control boundary; the samples
	// recorded up to that point are still flushed, so an interrupted trace
	// remains plottable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	trace, health, runErr := sys.TraceWithHealthContext(ctx, *bench, *threads, *policy, *fanLevel-1)
	if *healthOut != "" && health != nil {
		data, err := json.MarshalIndent(health, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*healthOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if runErr != nil && len(trace) == 0 {
		fatal(runErr)
	}
	w := csv.NewWriter(os.Stdout)
	if err := w.Write([]string{"time_s", "peak_temp_c", "chip_power_w", "fan_level", "tecs_on", "mean_dvfs"}); err != nil {
		fatal(err)
	}
	for _, p := range trace {
		rec := []string{
			strconv.FormatFloat(p.Time, 'g', 8, 64),
			strconv.FormatFloat(p.PeakTemp, 'f', 3, 64),
			strconv.FormatFloat(p.ChipPower, 'f', 3, 64),
			strconv.Itoa(p.FanLevel + 1),
			strconv.Itoa(p.TECsOn),
			strconv.FormatFloat(p.MeanDVFS, 'f', 3, 64),
		}
		if err := w.Write(rec); err != nil {
			fatal(err)
		}
	}
	w.Flush()
	if runErr != nil {
		fatal(fmt.Errorf("interrupted after %d samples: %w", len(trace), runErr))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfan-trace:", err)
	os.Exit(1)
}
