package main

import (
	"math"
	"time"
)

// hostRef is a fixed, stdlib-only yardstick for how fast the host runs at
// the moment. On a shared VM the speed of the same code drifts by a third
// or more over minutes, as neighbours come and go; timings scaled by this
// yardstick, measured right before and right after each pass, drift far
// less. It mimics the program's two kinds of work: a dense Cholesky factor
// and triangular solves (the thermal solves), and a stream over a buffer far
// larger than the caches (state copies, the garbage collector). The buffers
// are allocated once, so timing it allocates nothing.
//
// It is part of the benchmark, not of the program: a change to the program
// cannot move it, so scaled timings stay comparable across commits.
type hostRef struct {
	a, l, x []float64
	stream  []float64
	sink    float64
}

const (
	refN       = 160
	refReps    = 2
	refSolves  = 40
	refStreamN = 4 << 20 // 32 MB of float64
	// refSlices short slices make one measurement; their median ignores a
	// slice that a momentary stall hit.
	refSlices = 5
)

// refNominalMS is a typical hostRef measurement on the 2-vCPU 2.1 GHz Xeon
// VM (linux/amd64) the benchmark was built on. Scaled timings read as
// seconds at that host speed.
const refNominalMS = 6.0

func newHostRef() *hostRef {
	r := &hostRef{
		a: make([]float64, refN*refN), l: make([]float64, refN*refN),
		x: make([]float64, refN), stream: make([]float64, refStreamN),
	}
	for i := 0; i < refN; i++ {
		for j := 0; j < refN; j++ {
			r.a[i*refN+j] = 1 / float64(1+i+j)
		}
		r.a[i*refN+i] += refN
	}
	return r
}

// measure times the yardstick, in milliseconds: the median over its slices
// of the geometric mean of a slice's solve part and its stream part, so each
// part weighs the same.
func (r *hostRef) measure() float64 {
	var slices [refSlices]float64
	for s := range slices {
		t0 := time.Now()
		for rep := 0; rep < refReps; rep++ {
			r.cholesky()
		}
		solve := time.Since(t0)
		t1 := time.Now()
		for i, v := range r.stream {
			r.stream[i] = v*0.5 + float64(i)
		}
		stream := time.Since(t1)
		slices[s] = math.Sqrt(float64(solve)*float64(stream)) / 1e6
	}
	r.sink += r.stream[refStreamN/3]
	return median(slices[:])
}

func (r *hostRef) cholesky() {
	n, l := refN, r.l
	copy(l, r.a)
	for j := 0; j < n; j++ {
		s := l[j*n+j]
		for k := 0; k < j; k++ {
			s -= l[j*n+k] * l[j*n+k]
		}
		d := math.Sqrt(s)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
	for t := 0; t < refSolves; t++ {
		for i := 0; i < n; i++ {
			s := float64(i + t)
			for k := 0; k < i; k++ {
				s -= l[i*n+k] * r.x[k]
			}
			r.x[i] = s / l[i*n+i]
		}
	}
	r.sink += r.x[n/2]
}
