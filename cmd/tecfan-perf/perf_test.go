package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tecfan/internal/numguard"
	"tecfan/internal/sim"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, med, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.25 || med != 2.5 || q3 != 3.75 {
		t.Fatalf("quartiles(1..4) = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("one sample is its own median and quartiles, got %v %v %v", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if s := summarize([]float64{1, 2, 3, 4}).spread(); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread = %v, want (3.75-1.25)/2.5 = 1", s)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if p := percentile([]float64{0, 10}, 90); math.Abs(p-9) > 1e-12 {
		t.Errorf("percentile interpolation = %v, want 9", p)
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got, want := h.quantile(q), q*1000*1e3
		if math.Abs(got-want)/want > 1.0/16+0.01 {
			t.Errorf("q%.2f = %.0fns, want %.0fns within 1/16", q, got, want)
		}
	}
	var small hist
	small.add(5)
	if small.quantile(0.5) != 5 {
		t.Errorf("values below 8ns are exact, got %v", small.quantile(0.5))
	}
}

func TestAttributeSelfTimeSumsToWall(t *testing.T) {
	ms := time.Millisecond
	run := &span{Layer: "sim", Start: 10 * ms, End: 60 * ms, Prio: 1}
	run.folder("core.control").add(20 * ms)
	run.folder("thermal.integrate").add(5 * ms)
	second := &span{Layer: "sim", Start: 70 * ms, End: 80 * ms, Prio: 1}
	inner := &span{Layer: "checkpoint.write", Start: 72 * ms, End: 75 * ms, Prio: 3}
	// Overlapping spans of one layer on two goroutines count once.
	w1 := &span{Layer: "worker", Start: 85 * ms, End: 95 * ms}
	w2 := &span{Layer: "worker", Start: 90 * ms, End: 98 * ms}
	got, err := attribute(100*ms, "exp", []*span{run, second, inner, w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"exp":               100*ms - 50*ms - 10*ms - 13*ms,
		"sim":               25*ms + 7*ms,
		"core.control":      20 * ms,
		"thermal.integrate": 5 * ms,
		"checkpoint.write":  3 * ms,
		"worker":            13 * ms,
	}
	var sum time.Duration
	for layer, d := range got {
		sum += d
		if d != want[layer] {
			t.Errorf("%s = %v, want %v", layer, d, want[layer])
		}
	}
	if sum != 100*ms {
		t.Errorf("shares sum to %v, want the 100ms pass", sum)
	}

	bad := &span{Layer: "sim", Start: 0, End: 10 * ms, Prio: 1}
	bad.folder("core.control").add(11 * ms)
	if _, err := attribute(20*ms, "exp", []*span{bad}); err == nil || !strings.Contains(err.Error(), "negative remainder") {
		t.Fatalf("folded calls longer than their span must be rejected, got %v", err)
	}
}

// fakeCtl is a bare controller; the types below add each combination of
// the optional sim interfaces to it.
type fakeCtl struct{ resets int }

func (*fakeCtl) Name() string                          { return "fake" }
func (*fakeCtl) Control(*sim.Observation) sim.Decision { return sim.Decision{} }
func (f *fakeCtl) Reset()                              { f.resets++ }

type fanOnly struct{ *fakeCtl }

func (fanOnly) FanControl(*sim.Observation) int { return 2 }

type escOnly struct{ *fakeCtl }

func (escOnly) EscalateNumeric(numguard.Violation) {}

type codecOnly struct{ *fakeCtl }

func (codecOnly) MarshalState() ([]byte, error) { return []byte("s"), nil }
func (codecOnly) UnmarshalState([]byte) error   { return nil }

type fanEsc struct {
	fanOnly
	escOnly
}
type fanCodec struct {
	fanOnly
	codecOnly
}
type escCodec struct {
	escOnly
	codecOnly
}
type allThree struct {
	fanOnly
	escOnly
	codecOnly
}

func (a fanEsc) Name() string                              { return a.fanOnly.Name() }
func (a fanEsc) Control(o *sim.Observation) sim.Decision   { return a.fanOnly.Control(o) }
func (a fanEsc) Reset()                                    { a.fanOnly.Reset() }
func (a fanCodec) Name() string                            { return a.fanOnly.Name() }
func (a fanCodec) Control(o *sim.Observation) sim.Decision { return a.fanOnly.Control(o) }
func (a fanCodec) Reset()                                  { a.fanOnly.Reset() }
func (a escCodec) Name() string                            { return a.escOnly.Name() }
func (a escCodec) Control(o *sim.Observation) sim.Decision { return a.escOnly.Control(o) }
func (a escCodec) Reset()                                  { a.escOnly.Reset() }
func (a allThree) Name() string                            { return a.fanOnly.Name() }
func (a allThree) Control(o *sim.Observation) sim.Decision { return a.fanOnly.Control(o) }
func (a allThree) Reset()                                  { a.fanOnly.Reset() }

// TestWrapControllerTransparent: the timing wrapper exposes FanController,
// NumericEscalator and StateCodec exactly when the wrapped controller does,
// and still reaches the wrapped controller through each.
func TestWrapControllerTransparent(t *testing.T) {
	f := &fakeCtl{}
	cases := []sim.Controller{
		f, fanOnly{f}, escOnly{f}, codecOnly{f},
		fanEsc{fanOnly{f}, escOnly{f}}, fanCodec{fanOnly{f}, codecOnly{f}},
		escCodec{escOnly{f}, codecOnly{f}}, allThree{fanOnly{f}, escOnly{f}, codecOnly{f}},
	}
	tr := newTracer()
	for _, ctl := range cases {
		sp := &span{}
		p := &stepProbe{tr: tr, setup: sp.folder("sim.setup"), integrate: sp.folder("thermal.integrate")}
		w := wrapController(ctl, p, sp)
		for _, iface := range []struct {
			name string
			has  func(any) bool
		}{
			{"FanController", func(c any) bool { _, ok := c.(sim.FanController); return ok }},
			{"NumericEscalator", func(c any) bool { _, ok := c.(sim.NumericEscalator); return ok }},
			{"StateCodec", func(c any) bool { _, ok := c.(sim.StateCodec); return ok }},
		} {
			if iface.has(w) != iface.has(ctl) {
				t.Errorf("%T: wrapper has %s = %v, wrapped has %v", ctl, iface.name, iface.has(w), iface.has(ctl))
			}
		}
		if fc, ok := w.(sim.FanController); ok && fc.FanControl(&sim.Observation{}) != 2 {
			t.Errorf("%T: FanControl did not reach the wrapped controller", ctl)
		}
		if sc, ok := w.(sim.StateCodec); ok {
			if b, _ := sc.MarshalState(); string(b) != "s" {
				t.Errorf("%T: MarshalState did not reach the wrapped controller", ctl)
			}
		}
		before, calls := f.resets, sp.Folded["policy.control"].N
		w.Reset()
		w.Control(&sim.Observation{})
		if f.resets != before+1 || w.Name() != "fake" || sp.Folded["policy.control"].N != calls+1 {
			t.Errorf("%T: Reset/Name/Control not passed through and timed", ctl)
		}
	}
}

func TestBenchmarkSpecMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.matchesHarness(); err != nil {
		t.Fatal(err)
	}

	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(map[string]any)) []byte {
		var m map[string]any
		_ = json.Unmarshal(data, &m)
		f(m)
		out, _ := json.Marshal(m)
		return out
	}
	e2e := func(m map[string]any) map[string]any { return m["end_to_end"].([]any)[0].(map[string]any) }
	for name, bad := range map[string][]byte{
		"bad name":      mutate(func(m map[string]any) { e2e(m)["name"] = "setup s" }),
		"no unit":       mutate(func(m map[string]any) { delete(e2e(m), "unit") }),
		"no direction":  mutate(func(m map[string]any) { e2e(m)["better"] = "faster" }),
		"no bound":      mutate(func(m map[string]any) { delete(e2e(m), "bound") }),
		"bound too big": mutate(func(m map[string]any) { e2e(m)["bound"] = 0.5 }),
		"extra key":     mutate(func(m map[string]any) { m["golden"] = "x" }),
		"repeated name": mutate(func(m map[string]any) {
			m["per_layer"] = append(m["per_layer"].([]any), m["per_layer"].([]any)[0])
		}),
	} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}

	saved := layerRows
	defer func() { layerRows = saved }()
	layerRows = append(append([]layerRow(nil), saved...), layerRow{Layers: []string{"sim.steps"}, Moves: []string{"wall_s@fig99"}})
	if err := s.matchesHarness(); err == nil {
		t.Error("a layer row naming an unknown workload was accepted")
	}
	layerRows = append(append([]layerRow(nil), saved...), layerRow{Layers: []string{"sim.steps"}, Moves: []string{"speed@fig56"}})
	if err := s.matchesHarness(); err == nil {
		t.Error("a layer row naming an unknown metric was accepted")
	}
}

func TestCanonicalResultStripsJobID(t *testing.T) {
	a := canonicalResult([]byte(`{"spec":{"id":"job-1","bench":"lu"},"threshold":81.25000000000001}`))
	b := canonicalResult([]byte(`{"threshold": 81.25000000000001, "spec": {"bench": "lu", "id": "job-2"}}`))
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), "81.25000000000001") {
		t.Fatalf("numbers must keep their exact text: %s", a)
	}
}

func TestVerdict(t *testing.T) {
	a := summarize([]float64{1.00, 1.01, 0.99, 1.00, 1.02})
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{1.05, 1.06, 1.04, 1.05, 1.05}, "lower", "pass"},
		{[]float64{1.30, 1.31, 1.29, 1.30, 1.30}, "lower", "regressed"},
		{[]float64{1.30, 1.31, 1.29, 1.30, 1.30}, "higher", "pass"},
		{[]float64{0.5, 1.5, 0.6, 1.4, 1.0}, "lower", "unresolved (spread > bound)"},
	} {
		if got := verdict(a, summarize(c.b), 0.1, c.better); got != c.want {
			t.Errorf("verdict(%v, %s) = %q, want %q", c.b, c.better, got, c.want)
		}
	}
}

// TestTracedPassesMatchUntraced runs every workload at smoke scale with and
// without tracing and requires byte-identical canonical outputs: the traced
// replays and timing wrappers must not change what the program computes.
func TestTracedPassesMatchUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			pe := passEnv{smoke: true, scales: smokeScales, seed: 3, workDir: t.TempDir()}
			plain, err := w.run(ctx, pe, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(ctx, pe, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed+traced.Failed+plain.Wrong+traced.Wrong > 0 {
				t.Fatalf("failures: %v %v", plain.Errors, traced.Errors)
			}
			digests := func(p *passResult) map[string]string {
				m := map[string]string{}
				for _, o := range p.Outputs {
					m[o.Key] = string(o.Data)
				}
				return m
			}
			a, b := digests(plain), digests(traced)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("output keys differ: %d untraced, %d traced", len(a), len(b))
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("output %q differs between traced and untraced passes", k)
				}
			}
			var shares float64
			for _, name := range shareLayers {
				shares += traced.Layers[name]
			}
			if math.Abs(shares-traced.Wall.Seconds()) > 1e-6 {
				t.Errorf("layer shares sum to %v, traced pass took %v", shares, traced.Wall.Seconds())
			}
		})
	}
}

// TestSmoke drives the command end to end: all five workloads, one measured
// and one traced pass each, goldens checked, and a last line that parses.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-smoke", "-seed", "2", "-work-dir", dir,
		"-out", dir + "/perf.json", "-trace-out", dir + "/trace.json"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < len(workloads) {
		t.Fatalf("exit %d, result %+v\n%s\n%s", code, line, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "golden checked") && !strings.Contains(stdout.String(), "golden skipped") {
		t.Errorf("golden status missing from the report:\n%s", stdout.String())
	}
	for _, w := range workloads {
		for _, m := range perLayer {
			if _, ok := line.Metrics[w.Name+"/"+m.Name]; !ok {
				t.Errorf("result line lacks %s/%s", w.Name, m.Name)
			}
		}
	}
	for _, f := range []string{"perf.json", "trace.json"} {
		if fi, err := os.Stat(dir + "/" + f); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	run := dir + "/perf.json"
	rep, err := readReport(run)
	if err != nil {
		t.Fatal(err)
	}
	for wl, rate := range map[string]string{"fig56": "sim_speed", "table1": "sim_speed", "daemon-trace": "jobs_per_s"} {
		if s := rep.workload(wl).Metrics[rate]; !(s.Median > 0) {
			t.Errorf("%s: %s missing or not positive: %+v", wl, rate, s)
		}
	}
	rep.Workloads[0].Wrong++
	worse := dir + "/worse.json"
	if err := writeJSONFile(worse, rep); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(io.Discard, "../../BENCHMARK.json", run, worse); err == nil {
		t.Error("a wrong output more than the baseline was not a regression")
	}
	// One row per end-to-end metric, plus failed_ratio and wrong_outputs. A
	// single file's per-pass spread may leave a row unresolved (set-up times
	// vary more from pass to pass than the bound); a set of files compares
	// per-file medians, which are identical here.
	rows := len(workloads) * (len(endToEnd) + 2)
	for _, c := range []struct {
		sides           [2]string
		allowUnresolved bool
	}{{[2]string{run, run}, true}, {[2]string{run + "," + run, run + "," + run}, false}} {
		var cmp bytes.Buffer
		if err := runCompare(&cmp, "../../BENCHMARK.json", c.sides[0], c.sides[1]); err != nil {
			t.Fatalf("comparing a run with itself: %v\n%s", err, cmp.String())
		}
		n := strings.Count(cmp.String(), " pass")
		if c.allowUnresolved {
			n += strings.Count(cmp.String(), " unresolved")
		}
		if n != rows {
			t.Errorf("self-comparison %v: %d passing rows, want %d:\n%s", c.sides, n, rows, cmp.String())
		}
	}
}
