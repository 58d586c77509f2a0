package splitmix

import "testing"

// TestMixVectors pins Mix to known SplitMix64 outputs. Mix(0) is the first
// output of the reference generator seeded with 0; each later value is the
// generator's next output, i.e. Mix of the previous state, whose state
// advances by the golden-ratio increment per draw. A change here would move
// every seeded fault placement, workload jitter and trace in the repo.
func TestMixVectors(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	var state uint64
	for i, w := range want {
		if got := Mix(state); got != w {
			t.Errorf("draw %d: Mix(%#x) = %#x, want %#x", i, state, got, w)
		}
		state += gamma
	}
	// Inputs the callers actually hash: a raw seed and all-ones.
	for _, c := range []struct{ in, want uint64 }{
		{1, 0x910a2dec89025cc1},
		{^uint64(0), 0xe4d971771b652c20},
	} {
		if got := Mix(c.in); got != c.want {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
