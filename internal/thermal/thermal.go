// Package thermal implements the HotSpot-like compact thermal model the
// paper's models and experiments stand on (§III-A, §IV-B): a layered RC
// network over the chip floorplan with
//
//   - one die node per floorplan component (lateral silicon conduction
//     between edge-adjacent components, vertical conduction through silicon
//     and the TIM layer),
//   - one heat-spreader node per core tile (lateral copper spreading,
//     vertical conduction into the sink base),
//   - a single heat-sink node coupled to ambient through the fan-dependent
//     convective conductance.
//
// Active TECs embedded in the TIM layer add linear Peltier heat pumping
// between a die node and its core's spreader node plus resistive Joule heat
// (see package tec). The package offers the steady-state solve of Eq. (1),
// G·Ts = P, and a backward-Euler transient integrator that realizes Eq. (3);
// the paper's interpolation Eq. (5) is provided for the controller side.
//
// Temperatures are in °C; ambient is folded into the right-hand side.
package thermal

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tecfan/internal/fan"
	"tecfan/internal/floorplan"
	"tecfan/internal/linalg"
	"tecfan/internal/tec"
)

const mm = 1e-3 // metres per millimetre

// Params are the package/material constants of the thermal stack.
type Params struct {
	DieThickness    float64 // m
	DieConductivity float64 // W/(m·K)
	DieVolHeat      float64 // J/(m³·K)

	// DieCapScale multiplies the die node heat capacity to lump the on-die
	// metal stack and interface-material capacitance into the silicon node
	// (standard compact-model practice); it slows component transients to
	// the few-millisecond constants HotSpot exhibits without altering the
	// steady state.
	DieCapScale float64

	TIMThickness    float64 // m
	TIMConductivity float64 // W/(m·K); TEC film layer included

	SpreaderThickness    float64 // m
	SpreaderConductivity float64 // W/(m·K)
	SpreaderVolHeat      float64 // J/(m³·K)
	// SpreaderAreaScale is the ratio of effective spreader region area to
	// die tile area (the spreader overhangs the die).
	SpreaderAreaScale float64
	// RegionSinkConductance is the vertical conductance from one spreader
	// region into the sink base, W/K (includes constriction).
	RegionSinkConductance float64
	// SpreaderLateralScale multiplies the geometric lateral conductance
	// between adjacent spreader regions (accounts for overhang paths).
	SpreaderLateralScale float64

	AmbientC float64 // in-case ambient air temperature, °C
}

// DefaultParams returns the calibrated stack used in all experiments. The
// values reproduce the paper's Table I base-scenario temperatures within a
// few degrees given the calibrated workload power maps.
func DefaultParams() Params {
	return Params{
		DieThickness:    0.15 * mm,
		DieConductivity: 100, // silicon near 80 °C
		DieVolHeat:      1.75e6,
		DieCapScale:     5.0,

		TIMThickness:    0.020 * mm,
		TIMConductivity: 1.33, // grease with embedded TEC films

		SpreaderThickness:     1.0 * mm,
		SpreaderConductivity:  400, // copper
		SpreaderVolHeat:       3.4e6,
		SpreaderAreaScale:     4.0,
		RegionSinkConductance: 5.0,
		SpreaderLateralScale:  2.0,

		AmbientC: 45,
	}
}

// Network is the assembled RC network for one chip and fan model. It is
// safe for concurrent use: the model is immutable after NewNetwork, each
// factor is built once and then only read, and every solve works in
// scratch its caller owns (a SteadyScratch, a Transient).
type Network struct {
	Chip   *floorplan.Chip
	Fan    *fan.Model
	Params Params

	n            int
	spreaderBase int // first spreader node
	sinkNode     int

	// cond is the conduction graph, excluding the fan-dependent
	// sink→ambient leg, as a CSR: entry k holds the conduction terms of its
	// (row, column) summed in assembly order, and every row stores its
	// diagonal. Its pattern is the pattern of every system the network
	// factors, so those share one symbolic analysis.
	cond *linalg.CSR
	diag []int     // diag[i] is the index in cond of row i's diagonal
	capn []float64 // per-node heat capacity, J/K

	// Cached factors are the verified kind: every solve through them is
	// residual-checked, refined once when degraded, and refused with a
	// typed linalg.NumError rather than returning garbage temperatures.
	steadyCache    factorCache[int, *linalg.VerifiedCholesky]
	transientCache factorCache[transientKey, *transientFactor]

	// coldScratch lends Steady its SteadyScratch. Simulations call the
	// cold solve once per run, and a fresh scratch for each call would
	// cost three vectors per run.
	coldScratch sync.Pool

	// blocks is the free list LeaseSteadyBlock hands SteadyBlocks out of,
	// holding at most cap(free) of them (GOMAXPROCS when the network was
	// built: no more goroutines than that solve at once); a block returned
	// to a full list is dropped. It is not a sync.Pool because a garbage
	// collection empties a Pool, and the next warm lease would allocate.
	blocks struct {
		mu   sync.Mutex
		free []*SteadyBlock
	}
}

// transientFactor is one cached backward-Euler system: the verified factor
// of C/dt + G and the C/dt diagonal every step adds to its right-hand side.
type transientFactor struct {
	f     *linalg.VerifiedCholesky
	capDt []float64 // capn[i]/dt
}

type transientKey struct {
	fanLevel int
	dtNanos  int64
}

// factorCache builds each key's factor once and shares it. Concurrent
// callers of one key wait while the first of them builds it; callers of
// other keys do not. A warm lookup takes the mutex for one map read and
// does not allocate. A failed build is kept too: the matrix is a pure
// function of the key, so a retry would fail the same way. A build that
// panics is kept as the key's error, and the panic goes on up the caller
// that ran it; every later caller gets the error, never a nil factor.
type factorCache[K comparable, F any] struct {
	mu sync.Mutex
	m  map[K]*cachedFactor[F]
}

type cachedFactor[F any] struct {
	once sync.Once
	f    F
	err  error
}

// get returns key's factor, calling build if no caller has yet.
func (c *factorCache[K, F]) get(key K, build func() (F, error)) (F, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &cachedFactor[F]{}
		if c.m == nil {
			c.m = map[K]*cachedFactor[F]{}
		}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("thermal: factor build panicked: %v", r)
				panic(r)
			}
		}()
		e.f, e.err = build()
	})
	return e.f, e.err
}

// NewNetwork assembles the network for a chip. The fan model supplies the
// convective conductance per speed level and the sink capacity.
func NewNetwork(chip *floorplan.Chip, fm *fan.Model, p Params) *Network {
	nc := len(chip.Components)
	cores := chip.NumCores()
	nw := &Network{
		Chip:         chip,
		Fan:          fm,
		Params:       p,
		n:            nc + cores + 1,
		spreaderBase: nc,
		sinkNode:     nc + cores,
		capn:         make([]float64, nc+cores+1),
	}
	nw.coldScratch.New = func() any { return nw.NewSteadyScratch() }
	nw.blocks.free = make([]*SteadyBlock, 0, runtime.GOMAXPROCS(0))
	nw.setConduction(nw.assemble())
	return nw
}

// addCond appends a symmetric conductance g between nodes a and b.
func addCond(cond []linalg.Coord, a, b int, g float64) []linalg.Coord {
	return append(cond,
		linalg.Coord{Row: a, Col: a, Val: g},
		linalg.Coord{Row: b, Col: b, Val: g},
		linalg.Coord{Row: a, Col: b, Val: -g},
		linalg.Coord{Row: b, Col: a, Val: -g},
	)
}

// assemble fills the node capacities and returns the conduction graph as
// a list of off-diagonal −g and diagonal +g entries, in the order whose
// per-entry sums every matrix of the network is built from.
func (nw *Network) assemble() []linalg.Coord {
	p := nw.Params
	chip := nw.Chip
	edges := chip.Adjacency()
	cores := chip.NumCores()
	// Four entries per conductance: one per adjacency edge, one vertical
	// leg per component, and per core a sink leg and up to two spreader
	// neighbours.
	cond := make([]linalg.Coord, 0, 4*(len(edges)+len(chip.Components)+3*cores))

	// Lateral die conduction between edge-adjacent components:
	// g = k_si · t_die · L_shared / d_centroid.
	for _, e := range edges {
		a, b := chip.Components[e.A], chip.Components[e.B]
		dx := a.CenterX() - b.CenterX()
		dy := a.CenterY() - b.CenterY()
		d := math.Hypot(dx, dy) * mm
		if d <= 0 {
			continue
		}
		g := p.DieConductivity * p.DieThickness * (e.Length * mm) / d
		cond = addCond(cond, e.A, e.B, g)
	}

	// Vertical die → spreader region through silicon + TIM, per component.
	rVert := p.DieThickness/p.DieConductivity + p.TIMThickness/p.TIMConductivity // K·m²/W
	for i, c := range chip.Components {
		area := c.Area() * mm * mm
		cond = addCond(cond, i, nw.SpreaderNode(c.Core), area/rVert)
		nw.capn[i] = p.DieVolHeat * area * p.DieThickness * p.DieCapScale
	}

	// Spreader regions: lateral copper conduction between adjacent tiles and
	// vertical conduction into the sink.
	tileArea := floorplan.TileW * floorplan.TileH * mm * mm
	for core := 0; core < cores; core++ {
		row := core / chip.TileCols
		col := core % chip.TileCols
		sp := nw.SpreaderNode(core)
		nw.capn[sp] = p.SpreaderVolHeat * tileArea * p.SpreaderAreaScale * p.SpreaderThickness
		cond = addCond(cond, sp, nw.sinkNode, p.RegionSinkConductance)
		// Right neighbour.
		if col+1 < chip.TileCols {
			l := floorplan.TileH * mm
			d := floorplan.TileW * mm
			g := p.SpreaderConductivity * p.SpreaderThickness * l / d * p.SpreaderLateralScale
			cond = addCond(cond, sp, nw.SpreaderNode(core+1), g)
		}
		// Down neighbour.
		if row+1 < chip.TileRows {
			l := floorplan.TileW * mm
			d := floorplan.TileH * mm
			g := p.SpreaderConductivity * p.SpreaderThickness * l / d * p.SpreaderLateralScale
			cond = addCond(cond, sp, nw.SpreaderNode(core+chip.TileCols), g)
		}
	}
	nw.capn[nw.sinkNode] = nw.Fan.SinkCapacity
	return cond
}

// setConduction sorts the conduction list into nw.cond: each row's columns
// ascending, each (row, column) stored once with its entries summed from
// zero in list order, which is the order a dense matrix accumulates them
// in. A row with no diagonal entry gets one that sums to zero.
func (nw *Network) setConduction(cond []linalg.Coord) {
	n := nw.n
	// Bucket the entries by row, keeping list order within a row, then
	// sort each row by column with a stable insertion sort (rows hold a
	// few dozen entries at most).
	start := make([]int, n+1)
	for _, c := range cond {
		start[c.Row+1]++
	}
	for r := 0; r < n; r++ {
		start[r+1] += start[r]
	}
	// start[r] serves as row r's cursor while scattering, and is shifted
	// back after.
	order := make([]int, len(cond))
	for k, c := range cond {
		order[start[c.Row]] = k
		start[c.Row]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	for r := 0; r < n; r++ {
		seg := order[start[r]:start[r+1]]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && cond[seg[j]].Col < cond[seg[j-1]].Col; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
	// Sum each (row, column) run; a row with no diagonal gets a zero one
	// in column order.
	rowPtr := make([]int, n+1)
	cols := make([]int, 0, len(cond)+n)
	vals := make([]float64, 0, len(cond)+n)
	nw.diag = make([]int, n)
	for r := 0; r < n; r++ {
		seg := order[start[r]:start[r+1]]
		nw.diag[r] = -1
		for i := 0; i < len(seg); {
			c := cond[seg[i]].Col
			if nw.diag[r] < 0 && c > r {
				nw.diag[r] = len(cols)
				cols, vals = append(cols, r), append(vals, 0)
			}
			if c == r {
				nw.diag[r] = len(cols)
			}
			var sum float64
			for ; i < len(seg) && cond[seg[i]].Col == c; i++ {
				sum += cond[seg[i]].Val
			}
			cols, vals = append(cols, c), append(vals, sum)
		}
		if nw.diag[r] < 0 {
			nw.diag[r] = len(cols)
			cols, vals = append(cols, r), append(vals, 0)
		}
		rowPtr[r+1] = len(cols)
	}
	nw.cond = linalg.NewCSRFromRows(n, rowPtr, cols, vals)
}

// NumNodes returns the total node count.
func (nw *Network) NumNodes() int { return nw.n }

// NumDie returns the number of die (component) nodes.
func (nw *Network) NumDie() int { return nw.spreaderBase }

// SpreaderNode returns the node index of core's spreader region.
func (nw *Network) SpreaderNode(core int) int { return nw.spreaderBase + core }

// Capacity returns the heat capacity of node i (J/K).
func (nw *Network) Capacity(i int) float64 { return nw.capn[i] }

// AssembleG builds the dense conductance matrix Ĝ of Eq. (1) for a fan
// level, without TEC terms (those are linear-in-T source terms handled by
// the solvers). Exposed for tests and for the controller's model extraction.
func (nw *Network) AssembleG(fanLevel int) *linalg.Dense {
	g := linalg.NewDense(nw.n, nw.n)
	c := nw.cond
	for r := 0; r < nw.n; r++ {
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			g.Set(r, c.ColIdx[k], c.Vals[k])
		}
	}
	g.Add(nw.sinkNode, nw.sinkNode, nw.Fan.Conductance(fanLevel))
	return g
}

// DiagG returns the diagonal of AssembleG(fanLevel) without building the
// dense matrix, bitwise AssembleG's.
func (nw *Network) DiagG(fanLevel int) []float64 {
	d := make([]float64, nw.n)
	for i, k := range nw.diag {
		d[i] = nw.cond.Vals[k]
	}
	d[nw.sinkNode] += nw.Fan.Conductance(fanLevel)
	return d
}

// SystemCSR assembles the matrix the network factors: Ĝ(fanLevel) for
// dt ≤ 0, the steady system, and the backward-Euler system C/dt + Ĝ for
// dt > 0. Each entry adds, in this order, the conduction terms, the fan
// leg at the sink and C/dt on the diagonal, the order a dense matrix
// accumulates them in, so every value is bitwise the dense one. An entry
// that sums to exactly zero is dropped, as a dense scan drops it; the
// matrix then gets a pattern of its own. Otherwise it shares the network's
// pattern, so all of the network's factors share one symbolic analysis.
func (nw *Network) SystemCSR(fanLevel int, dt float64) *linalg.CSR {
	c := nw.cond
	vals := append([]float64(nil), c.Vals...)
	vals[nw.diag[nw.sinkNode]] += nw.Fan.Conductance(fanLevel)
	if dt > 0 {
		for i, k := range nw.diag {
			vals[k] += nw.capn[i] / dt
		}
	}
	zeros := 0
	for _, v := range vals {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		return c.WithValues(vals)
	}
	rowPtr := make([]int, nw.n+1)
	cols := make([]int, 0, len(vals)-zeros)
	kept := vals[:0]
	for r := 0; r < nw.n; r++ {
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			if vals[k] != 0 {
				cols, kept = append(cols, c.ColIdx[k]), append(kept, vals[k])
			}
		}
		rowPtr[r+1] = len(cols)
	}
	return linalg.NewCSRFromRows(nw.n, rowPtr, cols, kept)
}

// steadyFactor returns the cached verified Cholesky factor of G(fanLevel).
func (nw *Network) steadyFactor(fanLevel int) (*linalg.VerifiedCholesky, error) {
	return nw.steadyCache.get(fanLevel, func() (*linalg.VerifiedCholesky, error) {
		f, err := linalg.NewVerifiedCholesky(nw.SystemCSR(fanLevel, 0), 0)
		if err != nil {
			return nil, fmt.Errorf("thermal: factoring G(fan=%d): %w", fanLevel, err)
		}
		return f, nil
	})
}

// peltierRHS adds the TEC source terms for the given temperature estimate to
// rhs: Peltier extraction at covered die nodes, deposition at the core
// spreader node, and the split Joule heat. Only engaged devices pump; all
// switched-on devices dissipate Joule heat.
func (nw *Network) peltierRHS(rhs, t []float64, ts *tec.State) {
	if ts == nil {
		return
	}
	for l := 0; l < ts.Len(); l++ {
		i := ts.Current(l)
		if i <= 0 {
			continue
		}
		p := ts.Placement(l)
		sp := nw.SpreaderNode(p.Core)
		joule := p.Device.JouleHeat(i)
		rhs[sp] += 0.5 * joule
		pump := ts.Engaged(l)
		// CoverList, not the Cover map: rhs[sp] accumulates across covered
		// components, and map-order float sums are not reproducible.
		for _, ce := range p.CoverList {
			comp, frac := ce.Comp, ce.Frac
			rhs[comp] += 0.5 * joule * frac
			if pump {
				q := p.Device.PumpCoefficient(i) * frac * (t[comp] + 273.15)
				rhs[comp] -= q
				rhs[sp] += q
			}
		}
	}
}

// baseRHS fills rhs with die power plus the ambient source at the sink. A
// wrong-length power vector is a model-construction defect reported as a
// structured error, not a panic: the sim boundary turns it into a failed
// run instead of a crashed process.
func (nw *Network) baseRHS(rhs, power []float64, fanLevel int) error {
	if len(power) != nw.NumDie() {
		//lint:tecfan-ignore allocfree -- model-construction defect path: formats the diagnosis at most once per failed run
		return fmt.Errorf("thermal: power vector length %d, want %d", len(power), nw.NumDie()) //lint:tecfan-ignore hotcall -- defect path: fmt runs at most once per failed run
	}
	linalg.Fill(rhs, 0)
	copy(rhs, power)
	rhs[nw.sinkNode] += nw.Fan.Conductance(fanLevel) * nw.Params.AmbientC
	return nil
}

// steadyTol is the fixed-point convergence tolerance (°C) for the Peltier
// source iteration.
const steadyTol = 1e-3

// SteadyScratch is the working memory of the Peltier fixed point: per
// column the right-hand side and the next iterate, the verified solve's
// residual and, for a block of columns, the column-interleaved block the
// block solve runs in. A goroutine solving on a shared Network keeps its
// own, so per-candidate steady solves stay allocation-free without tying
// the Network to one caller. NewSteadyScratch builds one column for
// SteadyInto; a SteadyBlock carries linalg.BlockWidth of them.
type SteadyScratch struct {
	rhs, next [linalg.BlockWidth][]float64
	res       []float64
	blk       []float64 // n·BlockWidth; nil for one column
}

// NewSteadyScratch returns a one-column SteadyScratch sized for the network.
func (nw *Network) NewSteadyScratch() *SteadyScratch {
	sc := &SteadyScratch{res: make([]float64, nw.n)}
	sc.rhs[0] = make([]float64, nw.n)
	sc.next[0] = make([]float64, nw.n)
	return sc
}

// SteadyBlock is a block of linalg.BlockWidth candidate columns for
// SteadyBatch: the warm starts and power vectors its caller fills, the
// outcomes the batch leaves, and the solver scratch it runs in. Blocks are
// about 100 KB on the SCC16 network, so callers lease one for the length of
// a batch (LeaseSteadyBlock) instead of each keeping its own; the network
// owns the block again once it is returned.
type SteadyBlock struct {
	// T[j] is column j's warm start on entry and its steady temperatures
	// on return, one entry per network node.
	T [linalg.BlockWidth][]float64
	// Power[j] is column j's die power vector, one entry per die node.
	Power [linalg.BlockWidth][]float64
	// Err[j] is column j's outcome: nil, or the error SteadyInto returns.
	Err [linalg.BlockWidth]error

	sc SteadyScratch
}

// LeaseSteadyBlock hands out a SteadyBlock from the network's free list,
// building one only when the list is empty. Its T, Power and Err hold
// whatever the last lease left there. The caller must not keep the block
// or any of its slices after ReturnSteadyBlock.
func (nw *Network) LeaseSteadyBlock() *SteadyBlock {
	nw.blocks.mu.Lock()
	var b *SteadyBlock
	if n := len(nw.blocks.free); n > 0 {
		b = nw.blocks.free[n-1]
		nw.blocks.free[n-1] = nil
		nw.blocks.free = nw.blocks.free[:n-1]
	}
	nw.blocks.mu.Unlock()
	if b != nil {
		return b
	}
	const w = linalg.BlockWidth
	b = &SteadyBlock{}
	b.sc.res = make([]float64, nw.n)
	b.sc.blk = make([]float64, nw.n*w)
	for j := 0; j < w; j++ {
		b.T[j] = make([]float64, nw.n)
		b.Power[j] = make([]float64, nw.NumDie())
		b.sc.rhs[j] = make([]float64, nw.n)
		b.sc.next[j] = make([]float64, nw.n)
	}
	return b
}

// ReturnSteadyBlock gives a leased block back to the network. A full free
// list drops it.
func (nw *Network) ReturnSteadyBlock(b *SteadyBlock) {
	nw.blocks.mu.Lock()
	if len(nw.blocks.free) < cap(nw.blocks.free) {
		nw.blocks.free = append(nw.blocks.free, b)
	}
	nw.blocks.mu.Unlock()
}

// Steady solves Eq. (1) for the steady-state temperature vector (°C). The
// TEC Peltier terms, linear in T, are converged by a short fixed-point
// iteration (they are small relative to the conduction terms, so 2–4 rounds
// suffice). ts may be nil for a TEC-less solve.
func (nw *Network) Steady(power []float64, fanLevel int, ts *tec.State) ([]float64, error) {
	t := make([]float64, nw.n)
	linalg.Fill(t, nw.Params.AmbientC)
	sc := nw.coldScratch.Get().(*SteadyScratch)
	defer nw.coldScratch.Put(sc)
	if err := nw.SteadyInto(t, power, fanLevel, ts, sc); err != nil {
		return nil, err
	}
	return t, nil
}

// SteadyInto is Steady with a caller-provided initial guess/output vector,
// enabling warm starts across control periods, and caller-owned scratch sc.
// It is the one-column case of SteadyBatch's fixed point.
func (nw *Network) SteadyInto(t, power []float64, fanLevel int, ts *tec.State, sc *SteadyScratch) error {
	var tc, pc [1][]float64
	var errs [1]error
	tc[0], pc[0] = t, power
	nw.steadyLockstep(tc[:], pc[:], fanLevel, ts, sc, errs[:])
	return errs[0]
}

// SteadyBatch is SteadyInto for the first k ≤ linalg.BlockWidth columns of
// b at once, for candidates that share a fan level and a TEC state: column
// j starts from b.T[j] under die power b.Power[j], and on return b.T[j] and
// b.Err[j] hold exactly the temperatures and error SteadyInto(b.T[j],
// b.Power[j], fanLevel, ts, ·) would leave.
func (nw *Network) SteadyBatch(b *SteadyBlock, k, fanLevel int, ts *tec.State) {
	nw.steadyLockstep(b.T[:k], b.Power[:k], fanLevel, ts, &b.sc, b.Err[:k])
}

// steadyLockstep runs the Peltier fixed point for len(t) columns in
// lockstep: each round builds every active column's right-hand side from
// its own iterate and solves them all in one block. Each column keeps its
// own warm start, iteration count and convergence test, so its
// temperatures and errs entry are bitwise what a fixed point of its own
// would give. A column that converges or is refused leaves the block, and
// the rest go on. sc must hold at least len(t) columns.
//
//tecfan:hotpath
func (nw *Network) steadyLockstep(t, power [][]float64, fanLevel int, ts *tec.State, sc *SteadyScratch, errs []error) {
	f, err := nw.steadyFactor(fanLevel)
	if err != nil {
		for j := range errs {
			errs[j] = err
		}
		return
	}
	// act lists the active columns; b, x, refined and solveErrs are the
	// block solve's views and verdicts in the same order.
	var act [linalg.BlockWidth]int
	var b, x [linalg.BlockWidth][]float64
	var refined [linalg.BlockWidth]bool
	var solveErrs [linalg.BlockWidth]error
	m := len(t)
	for j := range act[:m] {
		act[j] = j
		errs[j] = nil
	}
	for iter := 0; iter < 50 && m > 0; iter++ {
		live := 0
		for _, j := range act[:m] {
			if err := nw.baseRHS(sc.rhs[j], power[j], fanLevel); err != nil {
				errs[j] = err
				continue
			}
			nw.peltierRHS(sc.rhs[j], t[j], ts)
			act[live], b[live], x[live] = j, sc.rhs[j], sc.next[j]
			live++
		}
		m = live
		f.SolveBlock(b[:m], x[:m], sc.blk, sc.res, refined[:m], solveErrs[:m])
		live = 0
		for i, j := range act[:m] {
			if err := solveErrs[i]; err != nil {
				//lint:tecfan-ignore allocfree -- solver refusal path: formats the diagnosis at most once per rejected solve
				errs[j] = fmt.Errorf("thermal: steady solve (fan=%d): %w", fanLevel, err) //lint:tecfan-ignore hotcall -- refusal path: fmt runs at most once per rejected solve
				continue
			}
			tj, next := t[j], sc.next[j]
			var delta float64
			for r := range tj {
				if d := math.Abs(next[r] - tj[r]); d > delta {
					delta = d
				}
			}
			copy(tj, next)
			if delta >= steadyTol {
				act[live] = j
				live++
			}
		}
		m = live
	}
	for _, j := range act[:m] {
		//lint:tecfan-ignore allocfree -- non-convergence refusal path: formats the diagnosis at most once per failed solve
		errs[j] = fmt.Errorf("thermal: Peltier fixed point did not converge") //lint:tecfan-ignore hotcall -- refusal path: fmt runs at most once per failed solve
	}
}

// Transient is a backward-Euler integrator with a fixed fan level and step.
// It owns its solve scratch, so it serves one goroutine at a time; the
// Transients of one Network share its factors.
type Transient struct {
	nw       *Network
	fanLevel int
	factor   *linalg.VerifiedCholesky
	capDt    []float64 // C/dt per node, shared with the cached factor
	rhs      []float64
	next     []float64
	res      []float64 // the verified solve's residual scratch
	// refines counts iterative-refinement steps the verified solve needed,
	// per Transient instance (the factor cache is shared across instances,
	// so the counter cannot live there without leaking across runs).
	refines int
}

// NewTransient factors (C/dt + G) for the given fan level and time step.
// Refactorization happens only when the fan level changes, matching the
// paper's observation that fan actuation is orders of magnitude slower than
// TEC/DVFS actuation.
func (nw *Network) NewTransient(fanLevel int, dt float64) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	key := transientKey{fanLevel: fanLevel, dtNanos: int64(dt * 1e9)}
	tf, err := nw.transientCache.get(key, func() (*transientFactor, error) {
		f, err := linalg.NewVerifiedCholesky(nw.SystemCSR(fanLevel, dt), 0)
		if err != nil {
			return nil, fmt.Errorf("thermal: factoring transient matrix: %w", err)
		}
		capDt := make([]float64, nw.n)
		for i, c := range nw.capn {
			capDt[i] = c / dt
		}
		return &transientFactor{f: f, capDt: capDt}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Transient{
		nw:       nw,
		fanLevel: fanLevel,
		factor:   tf.f,
		capDt:    tf.capDt,
		rhs:      make([]float64, nw.n),
		next:     make([]float64, nw.n),
		res:      make([]float64, nw.n),
	}, nil
}

// FanLevel returns the fan level the integrator was factored for.
func (tr *Transient) FanLevel() int { return tr.fanLevel }

// Step advances t (in place) by one dt with the given die power vector and
// TEC state. Peltier terms use the pre-step temperatures (semi-implicit),
// which is stable because the pump coefficients are tiny relative to C/dt.
// On error t is left untouched (the solve goes into a scratch vector), so
// callers can retry or hold the last good state.
func (tr *Transient) Step(t, power []float64, ts *tec.State) error {
	nw := tr.nw
	if err := nw.baseRHS(tr.rhs, power, tr.fanLevel); err != nil {
		return err
	}
	nw.peltierRHS(tr.rhs, t, ts)
	// (C/dt)·t, with C/dt built once per cached factor: Go evaluates
	// capn[i]/dt*t[i] left to right, so the product keeps its bits.
	for i, c := range tr.capDt {
		tr.rhs[i] += c * t[i]
	}
	refined, err := tr.factor.Solve(tr.rhs, tr.next, tr.res)
	if refined {
		tr.refines++
	}
	if err != nil {
		return err
	}
	copy(t, tr.next)
	return nil
}

// TakeRefinements returns the refinement count accumulated since the last
// call and resets it — a delta, so the sim can attribute refinement work to
// the exact step window it audited.
func (tr *Transient) TakeRefinements() int {
	n := tr.refines
	tr.refines = 0
	return n
}

// PeakDie returns the hottest die component index and its temperature.
func (nw *Network) PeakDie(t []float64) (comp int, tC float64) {
	comp, tC = -1, math.Inf(-1)
	for i := 0; i < nw.NumDie(); i++ {
		if t[i] > tC {
			comp, tC = i, t[i]
		}
	}
	return comp, tC
}

// CorePeak returns the hottest component of one core and its temperature.
func (nw *Network) CorePeak(t []float64, core int) (comp int, tC float64) {
	comp, tC = -1, math.Inf(-1)
	for _, i := range nw.Chip.CoreComponents(core) {
		if t[i] > tC {
			comp, tC = i, t[i]
		}
	}
	return comp, tC
}

// TECPower evaluates Eq. (9) for every switched-on device given the current
// temperature field: P = r·I² + α·I·Δθ with Δθ the spreader-minus-die
// temperature difference seen by the device.
func (nw *Network) TECPower(t []float64, ts *tec.State) float64 {
	if ts == nil {
		return 0
	}
	var total float64
	for l := 0; l < ts.Len(); l++ {
		i := ts.Current(l)
		if i <= 0 {
			continue
		}
		p := ts.Placement(l)
		sp := nw.SpreaderNode(p.Core)
		var cold float64
		for _, ce := range p.CoverList {
			cold += t[ce.Comp] * ce.Frac
		}
		dTheta := t[sp] - cold
		if dTheta < 0 {
			dTheta = 0 // the pump has not yet established a gradient
		}
		total += p.Device.Power(i, dTheta)
	}
	return total
}

// RCInterp implements the paper's Eq. (5): one step of the discretized RC
// response, T(k) = (1−β)·Ts + β·T(k−1) with β = exp(−Δk/(Rth·Cth)). The
// controller uses it to estimate how far the transient moves toward the
// predicted steady state within one control period.
func RCInterp(ts, tPrev, tauSeconds, dtSeconds float64) float64 {
	beta := math.Exp(-dtSeconds / tauSeconds)
	return (1-beta)*ts + beta*tPrev
}
