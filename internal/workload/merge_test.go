package workload

import (
	"math"
	"testing"

	"tecfan/internal/floorplan"
	"tecfan/internal/power"
)

func mergedLuVolrend(t *testing.T) (*Benchmark, *Benchmark, *Benchmark) {
	t.Helper()
	leak := power.DefaultLeakage()
	lu, err := ByName("lu", 16, leak)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := ByName("volrend", 16, leak)
	if err != nil {
		t.Fatal(err)
	}
	coresA := []int{0, 1, 2, 3, 4, 5, 6, 7}
	coresB := []int{8, 9, 10, 11, 12, 13, 14, 15}
	m, err := Merge(lu, vol, coresA, coresB)
	if err != nil {
		t.Fatal(err)
	}
	return m, lu, vol
}

func TestMergeIdentity(t *testing.T) {
	m, lu, vol := mergedLuVolrend(t)
	if m.Name != "lu+volrend" {
		t.Fatalf("name %q", m.Name)
	}
	if m.Threads != 16 || len(m.ActiveCores) != 16 {
		t.Fatalf("threads %d, cores %d", m.Threads, len(m.ActiveCores))
	}
	wantInst := 8*lu.InstPerCore() + 8*vol.InstPerCore()
	if math.Abs(m.TotalInst-wantInst) > 1 {
		t.Fatalf("TotalInst %v, want %v", m.TotalInst, wantInst)
	}
	if m.TargetPeak != math.Max(lu.TargetPeak, vol.TargetPeak) {
		t.Fatalf("TargetPeak %v", m.TargetPeak)
	}
}

func TestMergePerCoreDelegation(t *testing.T) {
	m, lu, vol := mergedLuVolrend(t)
	chip := floorplan.NewSCC16()

	// Core 0 behaves like lu, core 8 like volrend.
	for _, p := range []float64{0.1, 0.4, 0.8} {
		if got, want := m.Activity(0, p), lu.Activity(0, p); got != want {
			t.Fatalf("core 0 activity %v, lu says %v", got, want)
		}
		if got, want := m.Activity(8, p), vol.Activity(8, p); got != want {
			t.Fatalf("core 8 activity %v, volrend says %v", got, want)
		}
		if got, want := m.IPS(8, p), vol.IPS(8, p); got != want {
			t.Fatalf("core 8 IPS %v, volrend says %v", got, want)
		}
	}

	// Power maps per side: core 0's FPMul share follows lu's concentrated
	// signature; core 8's follows volrend's uniform one.
	outA := make([]float64, len(chip.Components))
	outB := make([]float64, len(chip.Components))
	m.PowerMap(chip).AddDynPower(0, 0.5, 1.0, outA)
	m.PowerMap(chip).AddDynPower(8, 0.5, 1.0, outB)
	fpA := outA[chip.Lookup(0, "FPMul")] / sum(outA)
	fpB := outB[chip.Lookup(8, "FPMul")] / sum(outB)
	if fpA <= fpB {
		t.Fatalf("lu-side FPMul share %.3f not above volrend-side %.3f", fpA, fpB)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestMergeErrors(t *testing.T) {
	leak := power.DefaultLeakage()
	lu, _ := ByName("lu", 16, leak)
	vol, _ := ByName("volrend", 16, leak)
	if _, err := Merge(lu, vol, nil, []int{1}); err == nil {
		t.Fatal("empty core set accepted")
	}
	if _, err := Merge(lu, vol, []int{1, 2}, []int{2, 3}); err == nil {
		t.Fatal("overlapping core sets accepted")
	}
}

func TestMergeLeavesOriginalsUntouched(t *testing.T) {
	m, lu, vol := mergedLuVolrend(t)
	if lu.Profiles != nil || vol.Profiles != nil {
		t.Fatal("merge mutated a source benchmark")
	}
	if len(m.Profiles) != 8 {
		t.Fatalf("%d profiles, want 8 (side-b cores)", len(m.Profiles))
	}
}
