package systolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tecfan/internal/linalg"
)

// q16 is the 16-bit reference format of the Bitirgen et al. datapoint, the
// wide comparison point for the paper's 8-bit claim.
var q16 = Q{Bits: 16, Frac: 7}

func tridiag(n int, lo, di, hi float64) *linalg.Banded {
	b := linalg.NewBanded(n, 1, 1)
	for i := 0; i < n; i++ {
		b.Set(i, i, di)
		if i > 0 {
			b.Set(i, i-1, lo)
		}
		if i < n-1 {
			b.Set(i, i+1, hi)
		}
	}
	return b
}

func TestQuantizeRoundTrip(t *testing.T) {
	q := Q8
	for _, x := range []float64{0, 0.25, -0.25, 1, -3.75, 31.75} {
		raw := q.Quantize(x)
		if got := q.Value(raw); got != x {
			t.Fatalf("representable %v round-tripped to %v", x, got)
		}
	}
	// Step and range.
	if q.Step() != 0.25 {
		t.Fatalf("Q8 step %v", q.Step())
	}
	if q.Max() != 31.75 {
		t.Fatalf("Q8 max %v", q.Max())
	}
	// Saturation.
	if got := q.Value(q.Quantize(1000)); got != q.Max() {
		t.Fatalf("positive saturation %v", got)
	}
	if got := q.Value(q.Quantize(-1000)); got != -q.Max()-q.Step() {
		t.Fatalf("negative saturation %v", got)
	}
}

func TestQuantizeRounding(t *testing.T) {
	q := Q8
	if q.Quantize(0.13) != 1 { // nearest multiple of 0.25 is 0.25
		t.Fatalf("rounding wrong: %d", q.Quantize(0.13))
	}
	if q.Quantize(0.12) != 0 {
		t.Fatalf("rounding wrong: %d", q.Quantize(0.12))
	}
}

func TestArrayMatchesFloatMulVec(t *testing.T) {
	n := 18 // the paper's M
	b := tridiag(n, -0.5, 1.25, -0.75)
	a, err := New(b, q16)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3 // exactly representable in q16
	}
	want := make([]float64, n)
	b.MulVec(x, want)
	got := make([]float64, n)
	st, err := a.MulVec(x, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: systolic %v vs float %v", i, got[i], want[i])
		}
	}
	// Classic pipeline latency: n + w − 1 cycles.
	if st.Cycles != n+a.PEs()-1 {
		t.Fatalf("cycles = %d, want %d", st.Cycles, n+a.PEs()-1)
	}
	// MAC count equals the in-band element count.
	if st.MACs != b.MACCount() {
		t.Fatalf("MACs = %d, band has %d elements", st.MACs, b.MACCount())
	}
	if st.PEs != 3 {
		t.Fatalf("PEs = %d, want 3 for a tridiagonal array", st.PEs)
	}
}

// Property: the systolic result tracks the float result within the
// analytical quantization bound for random banded systems.
func TestArrayQuantizationBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		kl := rng.Intn(3)
		ku := rng.Intn(3)
		b := linalg.NewBanded(n, kl, ku)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if b.InBand(i, j) {
					b.Set(i, j, rng.Float64()*4-2)
				}
			}
		}
		a, err := New(b, Q8)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*20 - 10
		}
		want := make([]float64, n)
		b.MulVec(x, want)
		got := make([]float64, n)
		if _, err := a.MulVec(x, got); err != nil {
			return false
		}
		bound := a.QuantizationError(10, 2)
		for i := range want {
			if math.Abs(got[i]-want[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestArraySaturationRejected(t *testing.T) {
	b := tridiag(4, 0, 1e6, 0) // way outside Q8
	if _, err := New(b, Q8); err == nil {
		t.Fatal("saturating coefficients accepted")
	}
}

func TestMulVecShapeErrors(t *testing.T) {
	b := tridiag(5, -1, 2, -1)
	a, _ := New(b, q16)
	if _, err := a.MulVec(make([]float64, 3), make([]float64, 5)); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := a.MulVec(make([]float64, 5), make([]float64, 3)); err == nil {
		t.Fatal("short output accepted")
	}
}

func TestPaperScaleClaim(t *testing.T) {
	// One 18-component core with K=3 neighbours (tridiagonal band) at 8
	// bits: 52 MACs per pass (the paper budgets M·K = 54 with edge rows
	// padded), 20 cycles of latency — a per-period cost of 16·18+2 = 290
	// cycles for the whole chip, trivially within a 2 ms period at any
	// plausible clock.
	b := tridiag(18, -0.4, 1.0, -0.4)
	a, err := New(b, Q8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 18)
	y := make([]float64, 18)
	st, _ := a.MulVec(x, y)
	if st.MACs > 54 {
		t.Fatalf("MACs %d exceed the paper's 54 budget", st.MACs)
	}
	if st.Cycles != 20 {
		t.Fatalf("latency %d cycles, want 20", st.Cycles)
	}
}
