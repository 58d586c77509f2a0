package systolic

import (
	"math"
	"testing"
)

// FuzzQuantize checks the fixed-point format over arbitrary floats: the
// quantized value always lies within the representable range and within
// half a step of the input when the input is in range.
func FuzzQuantize(f *testing.F) {
	f.Add(0.0)
	f.Add(1.5)
	f.Add(-31.75)
	f.Add(1e300)
	f.Add(-1e300)
	f.Add(0.1249999)
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) {
			return
		}
		for _, q := range []Q{Q8, q16} {
			raw := q.Quantize(x)
			v := q.Value(raw)
			if v > q.Max()+1e-9 || v < -q.Max()-q.Step()-1e-9 {
				t.Fatalf("%d-bit: %v quantized outside range: %v", q.Bits, x, v)
			}
			if math.Abs(x) <= q.Max() {
				if math.Abs(v-x) > q.Step()/2+1e-12 {
					t.Fatalf("%d-bit: in-range %v rounded to %v (step %v)", q.Bits, x, v, q.Step())
				}
			}
		}
	})
}
