package thermal

import (
	"testing"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/tec"
)

// Performance documentation for the thermal substrate at experiment sizes.

func benchNetwork16() (*Network, []float64) {
	chip := floorplan.NewSCC16()
	nw := NewNetwork(chip, fan.DynatronR16(), DefaultParams())
	p := make([]float64, nw.NumDie())
	for i, c := range chip.Components {
		p[i] = 120 * c.Area() / chip.Area()
	}
	return nw, p
}

func BenchmarkNetworkAssembly16(b *testing.B) {
	chip := floorplan.NewSCC16()
	fm := fan.DynatronR16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewNetwork(chip, fm, DefaultParams())
	}
}

// BenchmarkTransientFactor16 measures the cache-miss cost of NewTransient —
// assembling C/dt + G and its verified profile Cholesky factor — on the
// real SCC16 network at the sim's 100 µs step.
func BenchmarkTransientFactor16(b *testing.B) {
	chip := floorplan.NewSCC16()
	fm := fan.DynatronR16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := NewNetwork(chip, fm, DefaultParams())
		b.StartTimer()
		if _, err := nw.NewTransient(1, 100e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyWithTEC16(b *testing.B) {
	nw, p := benchNetwork16()
	ts := tec.NewState(tec.Array(nw.Chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(5) {
		ts.Set(l, true)
	}
	ts.Advance(1)
	t := make([]float64, nw.NumNodes())
	for i := range t {
		t[i] = 75
	}
	sc := nw.NewSteadyScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.SteadyInto(t, p, 1, ts, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSteady16(b *testing.B) {
	chip := floorplan.NewSCC16()
	g, err := NewGrid(chip, fan.DynatronR16(), DefaultParams(), 0.3)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, len(chip.Components))
	for i, c := range chip.Components {
		p[i] = 120 * c.Area() / chip.Area()
	}
	b.ReportMetric(float64(g.NumCells()), "cells")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Steady(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}
