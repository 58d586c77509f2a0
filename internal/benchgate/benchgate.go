// Package benchgate judges the hot-path micro-benchmarks of a change against
// its parent commit: the verdict behind `tecfan-bench -gobench REV` and
// scripts/bench_gate.sh. Both sides run as interleaved pairs, on the same
// machine under the same load, so no measurement is stored between runs.
//
// The verdict on each benchmark named in the change's list:
//
//   - allocs/op regresses when the change's median is above the parent's.
//     The hot kernels hold exact integer counts (DESIGN.md §18), so the
//     check is exact on any machine.
//   - ns/op regresses when the change is slower in at least nine tenths of
//     the pairs (ties count for neither) and its median gap exceeds both
//     the parent's interquartile range and Band of the parent's median: a
//     loss across pairs that is larger than the parent's own spread.
//   - a benchmark that did not run on the change side is missing, and
//     fails: deleting a benchmark means removing its name from the list.
//   - a benchmark the parent lacks is reported but not judged.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Band is the smallest ns/op rise, as a share of the parent's median, that
// can count as a regression.
const Band = 0.15

// Metrics holds one benchmark's measured values.
type Metrics struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// ParseGoBench extracts per-benchmark metrics from one `go test -bench
// -benchmem` output stream. Benchmark names are normalized by stripping
// the -GOMAXPROCS suffix; non-benchmark lines (pkg banners, PASS, metric
// extensions like MACs/eval) are skipped.
func ParseGoBench(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				seen = true
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if seen {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading bench output: %w", err)
	}
	return out, nil
}

// Pair is one interleaved pair of sweeps, by benchmark name.
type Pair struct {
	Parent, Change map[string]Metrics
}

// Verdict is the judgement on one benchmark.
type Verdict struct {
	Name string
	// Parent and Change are the medians over the pairs.
	Parent, Change Metrics
	// Slower counts the pairs in which the change's ns/op was higher.
	Slower int
	// IQR is the interquartile range of the parent's ns/op.
	IQR float64
	// New marks a benchmark the parent lacks: reported, not judged.
	New bool
	// Failures says why the benchmark fails the gate; empty when it passes.
	Failures []string
}

// Judge returns one verdict per name, in the order given.
func Judge(names []string, pairs []Pair) []Verdict {
	out := make([]Verdict, len(names))
	for i, name := range names {
		out[i] = judge(name, pairs)
	}
	return out
}

func judge(name string, pairs []Pair) Verdict {
	v := Verdict{Name: name}
	var parentNs, parentAllocs, changeNs, changeAllocs []float64
	for _, p := range pairs {
		c, ok := p.Change[name]
		if !ok {
			break
		}
		changeNs = append(changeNs, c.NsPerOp)
		changeAllocs = append(changeAllocs, c.AllocsPerOp)
		if b, ok := p.Parent[name]; ok {
			parentNs = append(parentNs, b.NsPerOp)
			parentAllocs = append(parentAllocs, b.AllocsPerOp)
			if c.NsPerOp > b.NsPerOp {
				v.Slower++
			}
		}
	}
	if len(pairs) == 0 || len(changeNs) < len(pairs) {
		v.Failures = []string{"missing: named in the gate's list, but did not run"}
		return v
	}
	_, v.Change.NsPerOp, _ = quartiles(changeNs)
	_, v.Change.AllocsPerOp, _ = quartiles(changeAllocs)
	if len(parentNs) < len(pairs) {
		v.New = true
		return v
	}
	q1, med, q3 := quartiles(parentNs)
	v.Parent.NsPerOp, v.IQR = med, q3-q1
	_, v.Parent.AllocsPerOp, _ = quartiles(parentAllocs)

	if v.Change.AllocsPerOp > v.Parent.AllocsPerOp {
		v.Failures = append(v.Failures, fmt.Sprintf("allocs/op %g -> %g", v.Parent.AllocsPerOp, v.Change.AllocsPerOp))
	}
	gap := v.Change.NsPerOp - v.Parent.NsPerOp
	if 10*v.Slower >= 9*len(pairs) && gap > v.IQR && gap > Band*v.Parent.NsPerOp {
		v.Failures = append(v.Failures, fmt.Sprintf("ns/op %.4g -> %.4g (+%.1f%%, slower in %d of %d pairs, parent IQR %.3g)",
			v.Parent.NsPerOp, v.Change.NsPerOp, 100*gap/v.Parent.NsPerOp, v.Slower, len(pairs), v.IQR))
	}
	return v
}

// quartiles returns Q1, median and Q3 by the rule of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), the rule
// tecfan-perf reports the end-to-end benchmark by. One sample is its own
// median and quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
