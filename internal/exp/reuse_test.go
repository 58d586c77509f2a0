package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"tecfan/internal/fault"
	"tecfan/internal/numfault"
	"tecfan/internal/perf"
	"tecfan/internal/policy"
	"tecfan/internal/workload"
)

// reuseEnv is the reduced-scale environment the base-run reuse is checked
// at.
func reuseEnv() *Env {
	e := NewEnv()
	e.Scale = 0.1
	return e
}

// refFig4One is the reference fig4One is checked against: it simulates
// every run of a case, T_th from an untraced base run, then Fan-only@L1
// against it like the other two series.
func (e *Env) refFig4One(ctx context.Context, b *workload.Benchmark) (Fig4Case, error) {
	sb := e.Scaled(b)
	pre, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		return Fig4Case{}, err
	}
	th := pre.Metrics.PeakTemp
	l1, err := e.runOne(ctx, sb, policy.FanOnly{}, th, 0, recordTrace)
	if err != nil {
		return Fig4Case{}, err
	}
	l2, err := e.runOne(ctx, sb, policy.FanOnly{}, th, 1, recordTrace)
	if err != nil {
		return Fig4Case{}, err
	}
	ft, err := e.runOne(ctx, sb, &policy.FanTEC{Placements: e.TECs}, th, 1, recordTrace)
	if err != nil {
		return Fig4Case{}, err
	}
	return e.fig4Case(b, th, l1, l2, ft), nil
}

// refRunCell is the reference RunCell is checked against: every level of
// the selection simulated, level 0 included.
func (e *Env) refRunCell(ctx context.Context, b *workload.Benchmark, name string, base perf.Metrics) (PolicyRun, error) {
	level, res, err := e.SelectFanLevelContext(ctx, b, name, base.PeakTemp)
	if err != nil {
		return PolicyRun{}, err
	}
	return PolicyRun{
		Policy: name, Bench: b.Name, Threshold: base.PeakTemp, FanLevel: level,
		Metrics: res.Metrics, Norm: res.Metrics.Normalize(base),
	}, nil
}

// requireSameBits fails unless got and want, two values of one struct
// type, agree in every field, each float64 — alone, in a slice or in a
// nested struct — bit for bit.
func requireSameBits(t *testing.T, label string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !sameBits(g.Field(i), w.Field(i)) {
			t.Errorf("%s: %s = %v, reference %v", label, g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	}
}

func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestFig4ReusesBaseRunBitForBit: on a clean Env every Fig. 4 case, whose
// Fan-only@L1 series and violation ratio now come from the base run,
// equals the case of the reference that simulates Fan-only@L1, in every
// field and bit.
func TestFig4ReusesBaseRunBitForBit(t *testing.T) {
	e := reuseEnv()
	ctx := context.Background()
	cases, err := e.Fig4Opt(ctx, RowOptions[Fig4Case]{})
	if err != nil {
		t.Fatal(err)
	}
	benches := workload.Table1(e.Leak)
	if len(cases) != len(benches) {
		t.Fatalf("%d cases, want %d", len(cases), len(benches))
	}
	for i, b := range benches {
		want, err := e.refFig4One(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, b.Name, cases[i], want)
		if len(cases[i].FanOnlyL1) == 0 || math.Float64bits(cases[i].ViolL1) != 0 {
			t.Errorf("%s: Fan-only@L1 series of %d samples, violation %v; want samples and +0",
				b.Name, len(cases[i].FanOnlyL1), cases[i].ViolL1)
		}
	}
}

// TestFanOnlyCellsReuseBaseRunBitForBit: on a clean Env every Fan-only
// cell of Fig. 5/6 and of the mapping study, whose level-0 run now comes
// from the base run, equals the reference cell that simulates it. A
// doctored base shows that the level-0 result really is taken from it.
func TestFanOnlyCellsReuseBaseRunBitForBit(t *testing.T) {
	e := reuseEnv()
	ctx := context.Background()
	r, err := e.Fig56Context(ctx)
	if err != nil {
		t.Fatal(err)
	}
	level0 := 0
	for _, b := range workload.Fig56Benchmarks(e.Leak) {
		sb := e.Scaled(b)
		want, err := e.refRunCell(ctx, sb, "Fan-only", r.Base[b.Name])
		if err != nil {
			t.Fatal(err)
		}
		got := r.Cell("Fan-only", b.Name)
		if got == nil {
			t.Fatalf("no Fan-only cell for %s", b.Name)
		}
		requireSameBits(t, "fig56 "+b.Name, *got, want)
		if got.FanLevel > 0 {
			continue
		}
		level0++
		base, err := e.BaseScenarioContext(ctx, sb)
		if err != nil {
			t.Fatal(err)
		}
		base.Metrics.Energy = 1
		doctored, err := e.RunCell(ctx, sb, "Fan-only", base)
		if err != nil {
			t.Fatal(err)
		}
		if doctored.FanLevel != 0 || doctored.Metrics.Energy != 1 {
			t.Errorf("%s: cell at level %d with energy %v; the level-0 run was not the base's",
				b.Name, doctored.FanLevel, doctored.Metrics.Energy)
		}
	}
	if level0 == 0 {
		t.Error("no Fan-only cell settled at level 0, so the reused run was never chosen")
	}

	rows, err := e.MappingStudy(ctx, "cholesky", "Fan-only")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("cholesky", 4, e.Leak)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range StandardMappings() {
		mb := *b
		mb.ActiveCores = append([]int(nil), m.Cores...)
		sb := e.Scaled(&mb)
		base, err := e.BaseScenarioContext(ctx, sb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.refRunCell(ctx, sb, "Fan-only", base.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "mapping "+m.Name, rows[i], MappingRow{
			Mapping: m.Name, Policy: "Fan-only", BasePeak: want.Threshold,
			FanLevel: want.FanLevel, Metrics: want.Metrics, Norm: want.Norm,
		})
	}
}

// TestFaultedFanOnlyRunsStillSimulated: with a fault scenario or a
// numerical-fault schedule armed, Fan-only at level 1 runs under it and
// differs from the clean base scenario, so Fig. 4 and the Fan-only cell
// must simulate it. Both still equal the reference, and both differ from
// the clean base run. (Sensor and fan faults leave a Fan-only run as it is,
// since it reads no sensor and requests no fan level; a shorted TEC drive
// runs its devices at full current whatever the policy commands.)
func TestFaultedFanOnlyRunsStillSimulated(t *testing.T) {
	sc, err := fault.ByName("tec-fail-on")
	if err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		name string
		arm  func(*Env)
	}{
		{"tec-fail-on", func(e *Env) { e.Faults, e.FaultSeed = &sc, 7 }},
		{"temps-perturb", func(e *Env) {
			e.NumFaults = &numfault.Schedule{Rules: []numfault.Rule{
				{Target: numfault.TargetTemps, Action: numfault.ActPerturb, Index: -1, Magnitude: 5, FromStep: 40, ToStep: 41},
			}}
		}},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			e := reuseEnv()
			a.arm(e)
			requireFaultedRunsSimulated(t, e)
		})
	}
}

// requireFaultedRunsSimulated fails unless, on the faulted e, two Fig. 4
// cases and one Fan-only cell equal the reference and differ from the
// clean base run.
func requireFaultedRunsSimulated(t *testing.T, e *Env) {
	t.Helper()
	ctx := context.Background()
	idx := []int{0, 3}
	cases, err := e.Fig4Opt(ctx, RowOptions[Fig4Case]{Indices: idx})
	if err != nil {
		t.Fatal(err)
	}
	benches := workload.Table1(e.Leak)
	for i, bi := range idx {
		b := benches[bi]
		want, err := e.refFig4One(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, b.Name, cases[i], want)
		base, err := e.baseScenario(ctx, e.Scaled(b), recordTrace)
		if err != nil {
			t.Fatal(err)
		}
		var clean []float64
		for _, p := range base.Trace {
			clean = append(clean, p.PeakTemp)
		}
		if sameBits(reflect.ValueOf(cases[i].FanOnlyL1), reflect.ValueOf(clean)) {
			t.Errorf("%s: faulted Fan-only@L1 series equals the clean base run's", b.Name)
		}
	}

	sb := e.Scaled(benches[idx[0]])
	base, err := e.BaseScenarioContext(ctx, sb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunCell(ctx, sb, "Fan-only", base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.refRunCell(ctx, sb, "Fan-only", base.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "faulted cell", got, want)
	if sameBits(reflect.ValueOf(got.Metrics), reflect.ValueOf(againstOwnPeak(base).Metrics)) {
		t.Errorf("faulted Fan-only cell at level %d has the clean base run's metrics %+v", got.FanLevel, got.Metrics)
	}
}
