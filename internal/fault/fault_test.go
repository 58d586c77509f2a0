package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func testLayout() Layout {
	return Layout{
		Sensors:        16,
		Cores:          16,
		DevicesPerCore: 9,
		FanLevels:      5,
		MaxDVFS:        3,
		Horizon:        1.0,
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, sc.Name)
		}
		if len(sc.Faults) == 0 {
			t.Fatalf("scenario %q has no faults", name)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	} else if !strings.Contains(err.Error(), "sensor-stuck") {
		t.Fatalf("error should list valid names, got: %v", err)
	}
	if len(Names()) < 8 {
		t.Fatalf("chaos sweep needs >= 8 built-in scenarios, have %d", len(Names()))
	}
}

func TestInjectorDeterministic(t *testing.T) {
	sc, err := ByName("sensor-storm")
	if err != nil {
		t.Fatal(err)
	}
	a := NewInjector(sc, testLayout(), 42)
	b := NewInjector(sc, testLayout(), 42)
	temps1 := []float64{60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75}
	temps2 := append([]float64(nil), temps1...)
	for i := 0; i < 5; i++ {
		a.CorruptTemps(0.5, temps1)
		b.CorruptTemps(0.5, temps2)
	}
	for i := range temps1 {
		same := temps1[i] == temps2[i] || (math.IsNaN(temps1[i]) && math.IsNaN(temps2[i]))
		if !same {
			t.Fatalf("same seed diverged at sensor %d: %v vs %v", i, temps1[i], temps2[i])
		}
	}
	// A different seed must pick different targets for at least one scenario
	// draw (16 choose 3 makes a collision across all faults vanishingly
	// unlikely at these fixed seeds).
	c := NewInjector(sc, testLayout(), 43)
	if reflect.DeepEqual(a.faults, c.faults) {
		t.Fatal("different seeds materialized identical targets")
	}
}

func TestResetReplaysFaults(t *testing.T) {
	sc, _ := ByName("sensor-noise")
	in := NewInjector(sc, testLayout(), 7)
	run := func() []float64 {
		in.Reset()
		temps := make([]float64, 16)
		for i := range temps {
			temps[i] = 70
		}
		in.CorruptTemps(0.9, temps)
		return temps
	}
	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("Reset did not replay the same noise stream")
	}
}

func TestSensorStuckAndDropout(t *testing.T) {
	in := NewInjector(Scenario{Faults: []Fault{
		{Kind: SensorStuck, Count: -1, StartFrac: 0.5},
	}}, testLayout(), 1)
	temps := []float64{50, 60}
	in.CorruptTemps(0.1, temps) // before onset: untouched
	if temps[0] != 50 || temps[1] != 60 {
		t.Fatalf("fault fired before onset: %v", temps)
	}
	in.CorruptTemps(0.6, temps) // captures 50/60
	temps[0], temps[1] = 80, 90
	in.CorruptTemps(0.7, temps)
	if temps[0] != 50 || temps[1] != 60 {
		t.Fatalf("stuck sensors moved: %v", temps)
	}

	in = NewInjector(Scenario{Faults: []Fault{
		{Kind: SensorDropout, Count: -1},
	}}, testLayout(), 1)
	temps = []float64{50, 60}
	in.CorruptTemps(0, temps)
	if !math.IsNaN(temps[0]) || !math.IsNaN(temps[1]) {
		t.Fatalf("dropout should read NaN: %v", temps)
	}
}

func TestFilterTECCoreMajor(t *testing.T) {
	lay := testLayout()
	in := NewInjector(Scenario{Faults: []Fault{
		{Kind: TECFailOff, Count: 1},
	}}, lay, 3)
	core := in.faults[0].cores[0]
	n := lay.Cores * lay.DevicesPerCore
	on := make([]bool, n)
	amps := make([]float64, n)
	for i := range on {
		on[i] = true
		amps[i] = 6
	}
	in.FilterTEC(0, on, amps, 6)
	for l := 0; l < n; l++ {
		inBank := l >= core*lay.DevicesPerCore && l < (core+1)*lay.DevicesPerCore
		if inBank && (on[l] || amps[l] != 0) {
			t.Fatalf("device %d of failed bank still driven", l)
		}
		if !inBank && (!on[l] || amps[l] != 6) {
			t.Fatalf("device %d outside bank was touched", l)
		}
	}

	in = NewInjector(Scenario{Faults: []Fault{
		{Kind: TECFailOn, Count: 1},
	}}, lay, 3)
	core = in.faults[0].cores[0]
	on = make([]bool, n)
	amps = make([]float64, n)
	in.FilterTEC(0, on, amps, 6)
	for l := core * lay.DevicesPerCore; l < (core+1)*lay.DevicesPerCore; l++ {
		if !on[l] || amps[l] != 6 {
			t.Fatalf("stuck-on device %d not at full drive", l)
		}
	}
	if !in.TECFaultActive(0) || in.TECFaultActive(-1) {
		t.Fatal("TECFaultActive onset wrong")
	}
}

func TestFilterDVFSAndFan(t *testing.T) {
	lay := testLayout()
	in := NewInjector(Scenario{Faults: []Fault{{Kind: DVFSDrop}}}, lay, 1)
	if got := in.FilterDVFS(0, []int{1, 2}); got != nil {
		t.Fatalf("DVFSDrop should nil the request, got %v", got)
	}

	in = NewInjector(Scenario{Faults: []Fault{{Kind: DVFSFloor, Param: 1}}}, lay, 1)
	got := in.FilterDVFS(0, []int{0, 3, 2})
	want := []int{2, 3, 2} // floor = MaxDVFS-1 = 2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DVFSFloor: got %v want %v", got, want)
	}

	in = NewInjector(Scenario{Faults: []Fault{{Kind: FanStuck, Param: 1e9}}}, lay, 1)
	if got := in.FilterFan(0, 0); got != lay.FanLevels-1 {
		t.Fatalf("FanStuck should clamp to slowest level, got %d", got)
	}
	if got := in.FilterFan(-1, 2); got != 2 {
		t.Fatalf("fan fault fired before onset: %d", got)
	}
}

func TestEarliestStart(t *testing.T) {
	sc, _ := ByName("cascade")
	in := NewInjector(sc, testLayout(), 5)
	if got := in.EarliestStart(); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("EarliestStart = %v, want 0.15", got)
	}
	empty := NewInjector(Scenario{}, testLayout(), 5)
	if empty.EarliestStart() != -1 {
		t.Fatal("EarliestStart of empty scenario should be -1")
	}
}
