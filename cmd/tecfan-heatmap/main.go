// Command tecfan-heatmap renders the chip as SVG: the floorplan with TEC
// placements, or a steady-state temperature field for a Table I workload at
// a chosen fan level — per-component (compact model) or per-cell (grid
// model).
//
//	tecfan-heatmap -mode floorplan > chip.svg
//	tecfan-heatmap -mode compact -bench lu -fan 2 > lu_l2.svg
//	tecfan-heatmap -mode grid -bench cholesky -cell 0.15 > cholesky.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/power"
	"tecfan/internal/tec"
	"tecfan/internal/thermal"
	"tecfan/internal/viz"
	"tecfan/internal/workload"
)

func main() {
	mode := flag.String("mode", "compact", "floorplan, compact, or grid")
	bench := flag.String("bench", "cholesky", "benchmark for thermal modes")
	threads := flag.Int("threads", 16, "thread count (16 or 4)")
	fanLevel := flag.Int("fan", 1, "fan speed level, 1 = fastest")
	cell := flag.Float64("cell", 0.2, "grid cell size, mm (grid mode)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if *mode != "floorplan" && *mode != "compact" && *mode != "grid" {
		fatal(fmt.Errorf("unknown mode %q (valid: floorplan, compact, grid)", *mode))
	}
	if *cell <= 0 {
		fatal(fmt.Errorf("cell size must be positive, got %g", *cell))
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

	chip := floorplan.NewSCC16()
	fm := fan.DynatronR16()
	leak := power.DefaultLeakage()

	if *mode == "floorplan" {
		if err := viz.Floorplan(w, chip, tec.Array(chip, tec.DefaultDevice())); err != nil {
			fatal(err)
		}
		return
	}

	if *fanLevel < 1 || *fanLevel > fm.NumLevels() {
		fatal(fmt.Errorf("fan level %d out of range (valid: 1..%d)", *fanLevel, fm.NumLevels()))
	}
	b, err := workload.ByName(*bench, *threads, leak)
	if err != nil {
		fatal(err)
	}
	p := make([]float64, len(chip.Components))
	pm := b.PowerMap(chip)
	for core := 0; core < chip.NumCores(); core++ {
		pm.AddDynPower(core, 0.5, 1.0, p)
	}
	// One leakage refinement pass at a nominal temperature.
	lk := make([]float64, len(p))
	temps0 := make([]float64, len(p))
	for i := range temps0 {
		temps0[i] = 75
	}
	leak.PerComponent(chip, temps0, power.ModelQuad, lk)
	for i := range p {
		p[i] += lk[i]
	}
	level := fm.Clamp(*fanLevel - 1)

	// Ctrl-C / SIGTERM aborts before the steady-state solve — the only step
	// that takes real time (fine grids especially).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "compact":
		nw := thermal.NewNetwork(chip, fm, thermal.DefaultParams())
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		temps, err := nw.Steady(p, level, nil)
		if err != nil {
			fatal(err)
		}
		if err := viz.ComponentHeatmap(w, chip, temps); err != nil {
			fatal(err)
		}
	case "grid":
		g, err := thermal.NewGrid(chip, fm, thermal.DefaultParams(), *cell)
		if err != nil {
			fatal(err)
		}
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		temps, err := g.Steady(p, level)
		if err != nil {
			fatal(err)
		}
		if err := viz.GridHeatmap(w, g, temps); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfan-heatmap:", err)
	os.Exit(1)
}
