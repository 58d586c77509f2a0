package thermal

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

// concurrentJob is one goroutine's share of TestConcurrentNetworkMatchesSerial
// on a network with the SCC16 chip: a warm steady solve with core g's TECs
// engaged at fan level g%4, a cold Steady one level slower, and a short
// transient at level g%4. It returns every field it computed, end to end,
// and the factors it solved with.
func concurrentJob(nw *Network, g int, p []float64) (out []float64, steadyF, transF *linalg.VerifiedCholesky, err error) {
	level := g % 4
	ts := tec.NewState(tec.Array(nw.Chip, tec.DefaultDevice()))
	for _, l := range ts.CoreDevices(g) {
		ts.Set(l, true)
	}
	ts.Advance(1)

	t := make([]float64, nw.NumNodes())
	for i := range t {
		t[i] = 75
	}
	if err := nw.SteadyInto(t, p, level, ts, nw.NewSteadyScratch()); err != nil {
		return nil, nil, nil, err
	}
	out = append(out, t...)
	cold, err := nw.Steady(p, level+1, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	out = append(out, cold...)
	tr, err := nw.NewTransient(level, 100e-6)
	if err != nil {
		return nil, nil, nil, err
	}
	for step := 0; step < 20; step++ {
		if err := tr.Step(t, p, ts); err != nil {
			return nil, nil, nil, err
		}
	}
	out = append(out, t...)
	if steadyF, err = nw.steadyFactor(level); err != nil {
		return nil, nil, nil, err
	}
	return out, steadyF, tr.factor, nil
}

// TestConcurrentNetworkMatchesSerial: eight goroutines solve on one shared
// network at once, pairs of them on the same fan level. Every result must
// equal a serial run on a fresh network bit for bit, and every goroutine
// that asked for a steady or transient factor of one key must have been
// handed the same one: the factor was built once and shared.
func TestConcurrentNetworkMatchesSerial(t *testing.T) {
	const workers = 8
	nw, p := benchNetwork16()
	serial, _ := benchNetwork16()
	want := make([][]float64, workers)
	for g := range want {
		var err error
		if want[g], _, _, err = concurrentJob(serial, g, p); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][]float64, workers)
	steadyF := make([]*linalg.VerifiedCholesky, workers)
	transF := make([]*linalg.VerifiedCholesky, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], steadyF[g], transF[g], errs[g] = concurrentJob(nw, g, p)
		}(g)
	}
	close(start)
	wg.Wait()

	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(got[g]) != len(want[g]) {
			t.Fatalf("goroutine %d: %d values, serial %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if math.Float64bits(got[g][i]) != math.Float64bits(want[g][i]) {
				t.Fatalf("goroutine %d: value %d = %v, serial %v", g, i, got[g][i], want[g][i])
			}
		}
		if other := g % 4; steadyF[g] != steadyF[other] || transF[g] != transF[other] {
			t.Errorf("goroutines %d and %d share fan level %d but were handed different factors", g, other, other)
		}
		if g >= 4 {
			continue
		}
		for _, h := range []int{(g + 1) % 4, (g + 2) % 4, (g + 3) % 4} {
			if steadyF[g] == steadyF[h] || transF[g] == transF[h] {
				t.Errorf("fan levels %d and %d share a factor", g, h)
			}
		}
	}
	// Levels 0–3 warm and 1–4 cold: five steady factors, four transient.
	if n := len(nw.steadyCache.m); n != 5 {
		t.Errorf("%d steady factors cached, want 5", n)
	}
	if n := len(nw.transientCache.m); n != 4 {
		t.Errorf("%d transient factors cached, want 4", n)
	}
}

// TestFactorCachePanicIsKept panics in a key's build: the panic reaches the
// caller that ran the build, and every later caller of the key gets an
// error instead of a nil factor.
func TestFactorCachePanicIsKept(t *testing.T) {
	var c factorCache[int, *linalg.VerifiedCholesky]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("building caller recovered %v, want the build's panic", r)
			}
		}()
		_, _ = c.get(1, func() (*linalg.VerifiedCholesky, error) { panic("boom") })
	}()
	f, err := c.get(1, func() (*linalg.VerifiedCholesky, error) {
		t.Fatal("a panicked key was built again")
		return nil, nil
	})
	if err == nil || f != nil {
		t.Fatalf("second get = (%v, %v), want a nil factor and an error", f, err)
	}
}

// batchColumn returns column j of the test blocks: the SCC16 power scaled
// by 0.6 + 0.1·j and a warm start of 60 + 2·j °C on every node.
func batchColumn(nw *Network, p []float64, j int) (power, warm []float64) {
	power = make([]float64, len(p))
	for i, v := range p {
		power[i] = v * (0.6 + 0.1*float64(j))
	}
	warm = make([]float64, nw.NumNodes())
	for i := range warm {
		warm[i] = 60 + 2*float64(j)
	}
	return power, warm
}

// engagedCores returns a TEC state with the devices of cores 0–3 engaged.
func engagedCores(nw *Network) *tec.State {
	ts := tec.NewState(tec.Array(nw.Chip, tec.DefaultDevice()))
	for core := 0; core < 4; core++ {
		for _, l := range ts.CoreDevices(core) {
			ts.Set(l, true)
		}
	}
	ts.Advance(1)
	return ts
}

// TestConcurrentSteadyBatch: eight goroutines share one network and its
// block free list, goroutine g solving a batch of g+1 columns (so both the
// one-at-a-time and the block kernel run) again and again. Every column
// must equal SteadyInto's result for it on a fresh network, bit for bit,
// and the free list must stay within its bound.
func TestConcurrentSteadyBatch(t *testing.T) {
	const workers = linalg.BlockWidth
	nw, p := benchNetwork16()
	serial, _ := benchNetwork16()
	ts := engagedCores(nw)
	want := make([][]float64, workers)
	for j := range want {
		power, warm := batchColumn(serial, p, j)
		if err := serial.SteadyInto(warm, power, 1, ts, serial.NewSteadyScratch()); err != nil {
			t.Fatal(err)
		}
		want[j] = warm
	}

	got := make([][][]float64, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gts := engagedCores(nw) // a tec.State is one goroutine's
			<-start
			k := g + 1
			for rep := 0; rep < 10; rep++ {
				b := nw.LeaseSteadyBlock()
				for j := 0; j < k; j++ {
					power, warm := batchColumn(nw, p, j)
					copy(b.Power[j], power)
					copy(b.T[j], warm)
				}
				nw.SteadyBatch(b, k, 1, gts)
				got[g] = got[g][:0]
				for j := 0; j < k; j++ {
					if b.Err[j] != nil {
						errs[g] = b.Err[j]
					}
					got[g] = append(got[g], append([]float64(nil), b.T[j]...))
				}
				nw.ReturnSteadyBlock(b)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for j, col := range got[g] {
			for i := range col {
				if math.Float64bits(col[i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("goroutine %d column %d: T[%d] = %v, SteadyInto %v", g, j, i, col[i], want[j][i])
				}
			}
		}
	}
	if n, c := len(nw.blocks.free), cap(nw.blocks.free); n > c || c != runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d blocks, capacity %d, GOMAXPROCS %d", n, c, runtime.GOMAXPROCS(0))
	}
}

// TestSteadyBatchMatchesSteadyInto: a batch's refused column carries
// SteadyInto's error and leaves its neighbours' temperatures untouched.
func TestSteadyBatchMatchesSteadyInto(t *testing.T) {
	nw, p := benchNetwork16()
	ts := engagedCores(nw)
	const k = linalg.BlockWidth
	b := nw.LeaseSteadyBlock()
	defer nw.ReturnSteadyBlock(b)
	want := make([][]float64, k)
	wantErr := make([]string, k)
	for j := 0; j < k; j++ {
		power, warm := batchColumn(nw, p, j)
		if j == 3 {
			power[7] = math.NaN()
		}
		copy(b.Power[j], power)
		copy(b.T[j], warm)
		err := nw.SteadyInto(warm, power, 2, ts, nw.NewSteadyScratch())
		want[j] = warm
		if err != nil {
			wantErr[j] = err.Error()
		}
	}
	if wantErr[3] == "" {
		t.Fatal("SteadyInto accepted a NaN power vector")
	}
	nw.SteadyBatch(b, k, 2, ts)
	for j := 0; j < k; j++ {
		gotErr := ""
		if b.Err[j] != nil {
			gotErr = b.Err[j].Error()
		}
		if gotErr != wantErr[j] {
			t.Fatalf("column %d: error %q, SteadyInto %q", j, gotErr, wantErr[j])
		}
		if j == 3 {
			continue // a refused column's temperatures are not a result
		}
		for i := range want[j] {
			if math.Float64bits(b.T[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("column %d: T[%d] = %v, SteadyInto %v", j, i, b.T[j][i], want[j][i])
			}
		}
	}
}
