package benchgate

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: tecfan
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSteadySolve       	     100	    212484 ns/op	   29904 B/op	       0 allocs/op
BenchmarkTransientStep-8   	     100	    159630 ns/op	       0 B/op	       0 allocs/op
BenchmarkSystolic-8        	     100	        52.91 ns/op	        36.00 MACs/eval	       0 B/op	       3 allocs/op
PASS
ok  	tecfan	0.117s
`

func TestParseGoBench(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	ts, ok := got["BenchmarkTransientStep"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if ts.NsPerOp != 159630 || ts.AllocsPerOp != 0 {
		t.Fatalf("TransientStep = %+v", ts)
	}
	// The custom MACs/eval metric must not displace the real ones.
	if sys := got["BenchmarkSystolic"]; sys.NsPerOp != 52.91 || sys.AllocsPerOp != 3 {
		t.Fatalf("Systolic = %+v", sys)
	}
}

func TestMedianOddEven(t *testing.T) {
	if _, m, _ := quartiles([]float64{100, 300, 200}); m != 200 {
		t.Fatalf("odd median = %v, want 200", m)
	}
	if _, m, _ := quartiles([]float64{100, 300}); m != 200 {
		t.Fatalf("even median = %v, want 200", m)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

// pairs builds ten pairs of one benchmark, X: the parent runs at parentNs
// with parentAllocs, and the change at parentNs*factor[i] with
// changeAllocs.
func pairs(parentNs []float64, factor []float64, parentAllocs, changeAllocs float64) []Pair {
	out := make([]Pair, len(parentNs))
	for i, ns := range parentNs {
		out[i] = Pair{
			Parent: map[string]Metrics{"X": {NsPerOp: ns, AllocsPerOp: parentAllocs}},
			Change: map[string]Metrics{"X": {NsPerOp: ns * factor[i], AllocsPerOp: changeAllocs}},
		}
	}
	return out
}

// quiet is a parent with a 2 % interquartile range around 100 ns/op.
var quiet = []float64{99, 100, 101, 100, 99, 101, 100, 99, 101, 100}

func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func TestJudgeIdenticalSidesPass(t *testing.T) {
	v := Judge([]string{"X"}, pairs(quiet, repeat(1, 10), 3, 3))[0]
	if len(v.Failures) != 0 || v.New || v.Slower != 0 {
		t.Fatalf("identical sides judged %+v", v)
	}
}

func TestCompareAllocsGateEverywhere(t *testing.T) {
	// One allocation more per op fails even with ns/op unchanged.
	v := Judge([]string{"X"}, pairs(quiet, repeat(1, 10), 5, 6))[0]
	if len(v.Failures) != 1 || !strings.HasPrefix(v.Failures[0], "allocs/op 5 -> 6") {
		t.Fatalf("one extra alloc judged %+v", v)
	}
}

func TestJudgeNsRule(t *testing.T) {
	slower := func(n int, f float64) []float64 {
		out := repeat(0.95, 10) // the pairs the change wins
		for i := 0; i < n; i++ {
			out[i] = f
		}
		return out
	}
	noisy := []float64{70, 100, 130, 80, 120, 100, 75, 125, 90, 110} // IQR ≈ 41
	for _, tc := range []struct {
		name   string
		parent []float64
		factor []float64
		fail   bool
	}{
		{"9 of 10 slower, +30% above band and IQR", quiet, slower(9, 1.3), true},
		{"8 of 10 slower", quiet, slower(8, 1.3), false},
		{"9 of 10 slower by under 15%", quiet, slower(9, 1.12), false},
		{"9 of 10 slower, gap inside the parent's IQR", noisy, slower(9, 1.3), false},
		{"ties count for neither", quiet, append(repeat(1.3, 8), 1, 1), false},
	} {
		v := Judge([]string{"X"}, pairs(tc.parent, tc.factor, 0, 0))[0]
		if got := len(v.Failures) > 0; got != tc.fail {
			t.Errorf("%s: failed = %v, want %v (%+v)", tc.name, got, tc.fail, v)
		}
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	ps := pairs(quiet, repeat(1, 10), 0, 0)
	delete(ps[3].Change, "X") // ran in some pairs only
	for _, p := range [][]Pair{ps, pairs(quiet, repeat(1, 10), 0, 0)} {
		v := Judge([]string{"X", "Gone"}, p)
		if len(v[1].Failures) != 1 || !strings.HasPrefix(v[1].Failures[0], "missing") {
			t.Fatalf("a named benchmark that never ran judged %+v", v[1])
		}
	}
	if v := Judge([]string{"X"}, ps)[0]; len(v.Failures) != 1 || !strings.HasPrefix(v.Failures[0], "missing") {
		t.Fatalf("a benchmark absent from one pair judged %+v", v)
	}
}

func TestJudgeNewBenchmarkNotJudged(t *testing.T) {
	ps := pairs(quiet, repeat(3, 10), 0, 9)
	for _, p := range ps {
		delete(p.Parent, "X")
	}
	v := Judge([]string{"X"}, ps)[0]
	if !v.New || len(v.Failures) != 0 || v.Change.AllocsPerOp != 9 {
		t.Fatalf("a benchmark the parent lacks judged %+v", v)
	}
}
