package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"tecfan"
	"tecfan/internal/core"
	"tecfan/internal/exp"
	"tecfan/internal/policy"
	"tecfan/internal/server"
	"tecfan/internal/sim"
	"tecfan/internal/workload"
)

// The simulator workloads run through the public facade when untraced. The
// facade builds its controllers inside internal/exp, so a traced pass
// re-drives the same sweep from here through env.SimConfig + sim.NewRunner
// (or server.Machine.RunContext for Fig. 7), with timing wrappers at the
// controller and integrator seams. Its rendered output must be
// byte-identical to the facade's, which proves the replay runs the same work.

func runFig56(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	sys, err := tecfan.New(tecfan.WithScale(pe.scales.fig56))
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if pe.setupOnly {
		return &passResult{Setup: setup}, nil
	}

	var res *exp.Fig56Result
	var st *simTrace
	t1 := time.Now()
	if tr == nil {
		res, err = sys.Fig56Context(ctx)
	} else {
		tr.t0 = t1
		st = &simTrace{tr: tr}
		res, err = st.fig56(ctx, sys.Env())
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tecfan.WriteFig5(&buf, res)
	tecfan.WriteFig6(&buf, res)
	return st.finish(&passResult{
		Setup: setup, Wall: time.Since(t1), Attempted: 1,
		Outputs: []output{{Data: buf.Bytes()}},
	})
}

func runTable1(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	sys, err := tecfan.New(tecfan.WithScale(pe.scales.table1))
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if pe.setupOnly {
		return &passResult{Setup: setup}, nil
	}

	var rows []exp.Table1Row
	var st *simTrace
	t1 := time.Now()
	if tr == nil {
		rows, err = sys.Table1Context(ctx)
	} else {
		tr.t0 = t1
		st = &simTrace{tr: tr}
		rows, err = st.table1(ctx, sys.Env())
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tecfan.WriteTable1(&buf, rows)
	return st.finish(&passResult{
		Setup: setup, Wall: time.Since(t1), Attempted: 1,
		Outputs: []output{{Data: buf.Bytes()}},
	})
}

// fig7Inputs is the cold set-up every Fig. 7 call pays before its first
// run. The facade builds its own copy inside the call; timing one here gives
// the workload its set-up metric.
func fig7Inputs(seconds int) (*server.Machine, [][]float64) {
	m := server.NewMachine()
	traces := server.PaperTraces()
	if seconds < len(traces[0]) {
		for c := range traces {
			traces[c] = traces[c][:seconds]
		}
	}
	return m, traces
}

func runFig7(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	fig7Inputs(pe.scales.fig7Seconds)
	setup := time.Since(t0)
	if pe.setupOnly {
		return &passResult{Setup: setup}, nil
	}

	var rows []exp.Fig7Row
	var err error
	var st *simTrace
	t1 := time.Now()
	if tr == nil {
		rows, err = tecfan.Fig7Context(ctx, pe.scales.fig7Seconds)
	} else {
		tr.t0 = t1
		st = &simTrace{tr: tr}
		rows, err = st.fig7(ctx, pe.scales.fig7Seconds)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tecfan.WriteFig7(&buf, rows)
	return st.finish(&passResult{
		Setup: setup, Wall: time.Since(t1), Attempted: 1,
		Outputs: []output{{Data: buf.Bytes()}},
	})
}

// simTrace drives one traced simulator pass and keeps its exact counts.
type simTrace struct {
	tr                             *tracer
	runs, steps, warm, refinements int64
	simSeconds                     float64
	decideCalls                    int64
	oracleDecide                   time.Duration
}

// finish stamps a pass result with the traced pass's layer metrics; on an
// untraced pass (nil receiver) it returns the result unchanged.
func (st *simTrace) finish(r *passResult) (*passResult, error) {
	if st == nil {
		return r, nil
	}
	r.Wall = st.tr.now()
	r.Spans = st.tr.snapshot()
	shares, err := attribute(r.Wall, "exp", r.Spans)
	if err != nil {
		return nil, err
	}
	m := shareMetrics(shares)
	var ctl, integ fold
	for _, s := range r.Spans {
		if f := s.Folded["core.control"]; f != nil {
			ctl.N += f.N
			ctl.H.merge(&f.H)
		}
		if f := s.Folded["thermal.integrate"]; f != nil {
			integ.N += f.N
			integ.Sum += f.Sum
		}
		if f := s.Folded["server.decide"]; f != nil {
			st.decideCalls += f.N
		}
	}
	m["core.control_calls"] = float64(ctl.N)
	m["core.control_us_p50"] = ctl.H.quantile(0.50) / 1e3
	m["core.control_us_p99"] = ctl.H.quantile(0.99) / 1e3
	if integ.N > 0 {
		m["thermal.integrate_ns"] = float64(integ.Sum) / float64(integ.N)
	}
	m["sim.steps"] = float64(st.steps)
	m["sim.warm_starts"] = float64(st.warm)
	m["exp.sim_runs"] = float64(st.runs)
	m["numguard.refinements"] = float64(st.refinements)
	m["server.decide_calls"] = float64(st.decideCalls)
	m["server.oracle_decide_s"] = st.oracleDecide.Seconds()
	r.Layers = m
	r.SimSeconds = st.simSeconds
	return r, nil
}

// shareMetrics turns attributed layer time into the *_s share metrics.
func shareMetrics(shares map[string]time.Duration) map[string]float64 {
	m := map[string]float64{}
	for layer, d := range shares {
		name, ok := shareLayers[layer]
		if !ok {
			name = layer + "_s" // an unmapped layer still shows, and fails the spec check
		}
		m[name] += d.Seconds()
	}
	return m
}

// run is exp's runOne with the timing seams attached: one sim.Runner run as
// a span, its integrator steps, controller calls and (re)start set-up folded
// into it.
func (st *simTrace) run(ctx context.Context, env *exp.Env, b *workload.Benchmark, ctl sim.Controller, threshold float64, level int) (*sim.Result, error) {
	sp := &span{Layer: "sim", Track: "sim", Prio: 1, Start: st.tr.now()}
	probe := &stepProbe{tr: st.tr, inSetup: true, setupFrom: sp.Start,
		setup: sp.folder("sim.setup"), integrate: sp.folder("thermal.integrate")}
	cfg := env.SimConfig(b, threshold, level)
	cfg.NumFaults = probe
	r, err := sim.NewRunner(cfg, wrapController(ctl, probe, sp))
	var res *sim.Result
	if err == nil {
		res, err = r.RunContext(ctx)
	}
	sp.End = st.tr.now()
	st.tr.add(sp)
	st.runs++
	st.steps += probe.steps
	if res != nil {
		st.simSeconds += res.Metrics.Time
		st.warm += int64(res.WarmStarts)
		if res.Numeric != nil {
			st.refinements += int64(res.Numeric.Refinements)
		}
	}
	return res, err
}

// fig56 mirrors exp.Env.Fig56Context.
func (st *simTrace) fig56(ctx context.Context, env *exp.Env) (*exp.Fig56Result, error) {
	out := &exp.Fig56Result{Base: map[string]exp.Metrics{}}
	for _, b := range workload.Fig56Benchmarks(env.Leak) {
		sb := env.Scaled(b)
		base, err := st.run(ctx, env, sb, policy.FanOnly{}, sb.TargetPeak, 0)
		if err != nil {
			return nil, fmt.Errorf("fig56 base %s: %w", b.Name, err)
		}
		out.Base[b.Name] = base.Metrics
		threshold := base.Metrics.PeakTemp
		for _, name := range exp.PolicyOrder {
			level, res, err := st.selectFanLevel(ctx, env, sb, name, threshold)
			if err != nil {
				return nil, fmt.Errorf("fig56 %s/%s: %w", b.Name, name, err)
			}
			out.Runs = append(out.Runs, exp.PolicyRun{
				Policy: name, Bench: b.Name, Threshold: threshold, FanLevel: level,
				Metrics: res.Metrics, Norm: res.Metrics.Normalize(base.Metrics),
			})
		}
	}
	return out, nil
}

// selectFanLevel mirrors exp.Env.SelectFanLevelContext (§IV-C).
func (st *simTrace) selectFanLevel(ctx context.Context, env *exp.Env, b *workload.Benchmark, name string, threshold float64) (int, *sim.Result, error) {
	chosen := 0
	var chosenRes *sim.Result
	for level := 0; level < env.Fan.NumLevels(); level++ {
		ctl := env.Controllers()[name]
		if ctl == nil {
			return 0, nil, fmt.Errorf("unknown policy %q", name)
		}
		res, err := st.run(ctx, env, b, ctl, threshold, level)
		if err != nil {
			var tce *sim.TimeCapError
			if errors.As(err, &tce) {
				break
			}
			return 0, nil, err
		}
		if withinBudget(env, res) && res.Completed {
			if chosenRes == nil || (name != "TECfan" && name != "TECfan-FT") ||
				res.Metrics.Energy < chosenRes.Metrics.Energy {
				chosen, chosenRes = level, res
			}
			continue
		}
		break
	}
	if chosenRes == nil {
		res, err := st.run(ctx, env, b, env.Controllers()[name], threshold, 0)
		if err != nil {
			return 0, nil, err
		}
		return 0, res, nil
	}
	return chosen, chosenRes, nil
}

// withinBudget mirrors the §IV-C acceptance in exp.
func withinBudget(env *exp.Env, res *sim.Result) bool {
	m := res.Metrics
	if m.ViolationRatio <= env.ViolationBudget {
		return true
	}
	return m.ViolationRatio <= 0.25 && m.ViolationRatio*m.Time <= exp.ViolationTimeBudget
}

// table1 mirrors exp.Env.Table1Opt over every row.
func (st *simTrace) table1(ctx context.Context, env *exp.Env) ([]exp.Table1Row, error) {
	var rows []exp.Table1Row
	for _, b := range workload.Table1(env.Leak) {
		sb := env.Scaled(b)
		res, err := st.run(ctx, env, sb, policy.FanOnly{}, sb.TargetPeak, 0)
		if err != nil {
			return nil, fmt.Errorf("table1 %s-%d: %w", b.Name, b.Threads, err)
		}
		rows = append(rows, exp.Table1Row{
			Workload: b.Name, Inputfile: b.Input, FFInst: b.FFInst, Threads: b.Threads, Inst: b.TotalInst,
			TimeMS:      res.Metrics.Time * 1000 / env.Scale,
			Power:       res.Metrics.AvgPower - env.Fan.Power(0),
			PeakT:       res.Metrics.PeakTemp,
			PaperTimeMS: b.TargetTimeMS, PaperPower: b.TargetPower, PaperPeakT: b.TargetPeak,
		})
	}
	return rows, nil
}

// fig7 mirrors exp.Fig7Context.
func (st *simTrace) fig7(ctx context.Context, seconds int) ([]exp.Fig7Row, error) {
	m, traces := fig7Inputs(seconds)
	policies := []server.Policy{&server.PIDFan{}, server.OFTEC{}, server.TECfan{}, server.NewOracle(), server.NewOracleP()}
	var rows []exp.Fig7Row
	var base *server.Result
	for _, p := range policies {
		sp := &span{Layer: "server", Track: "server", Prio: 1, Start: st.tr.now()}
		tp := &timedPolicy{Policy: p, tr: st.tr, decide: sp.folder("server.decide")}
		res, err := m.RunContext(ctx, traces, tp, server.RunConfig{})
		sp.End = st.tr.now()
		st.tr.add(sp)
		if _, ok := p.(*server.Oracle); ok {
			st.oracleDecide += tp.decide.Sum
		}
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", p.Name(), err)
		}
		if p.Name() == "OFTEC" {
			base = res
		}
		rows = append(rows, exp.Fig7Row{Policy: p.Name(), Raw: *res})
	}
	for i := range rows {
		r := &rows[i]
		r.Delay = r.Raw.Delay / base.Delay
		r.Power = r.Raw.Metrics.AvgPower / base.Metrics.AvgPower
		r.Energy = r.Raw.Metrics.Energy / base.Metrics.Energy
		r.EDP = (r.Raw.Metrics.Energy * r.Raw.Delay) / (base.Metrics.Energy * base.Delay)
	}
	return rows, nil
}

// timedPolicy times server.Policy.Decide; Name passes through untouched.
type timedPolicy struct {
	server.Policy
	tr     *tracer
	decide *fold
}

func (p *timedPolicy) Decide(s *server.State, m *server.Machine) server.Decision {
	t := p.tr.now()
	d := p.Policy.Decide(s, m)
	p.decide.add(p.tr.now() - t)
	return d
}

// stepProbe is a sim.NumFaultInjector that injects nothing: the simulator
// calls CorruptPower just before the integrator step and CorruptTemps just
// after it, so the pair brackets thermal integration. The first step after
// a run (re)starts also closes that start's set-up interval.
type stepProbe struct {
	tr                *tracer
	setup, integrate  *fold
	inSetup           bool
	setupFrom, stepAt time.Duration
	steps             int64
}

func (p *stepProbe) CorruptPower(step int, retry bool, power []float64) bool {
	if !retry {
		now := p.tr.now()
		if p.inSetup {
			p.setup.add(now - p.setupFrom)
			p.inSetup = false
		}
		p.stepAt = now
	}
	return false
}

func (p *stepProbe) CorruptTemps(step int, retry bool, temps []float64) bool {
	if !retry {
		p.integrate.add(p.tr.now() - p.stepAt)
		p.steps++
	}
	return false
}

// restart opens a set-up interval at a warm-start restart; the first one
// is already open from the run start.
func (p *stepProbe) restart() {
	if !p.inSetup {
		p.inSetup, p.setupFrom = true, p.tr.now()
	}
}

// timedController times a sim.Controller's Control calls and marks its
// warm-start resets.
type timedController struct {
	inner   sim.Controller
	p       *stepProbe
	control *fold
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Control(obs *sim.Observation) sim.Decision {
	t := c.p.tr.now()
	d := c.inner.Control(obs)
	c.control.add(c.p.tr.now() - t)
	return d
}

func (c *timedController) Reset() {
	c.inner.Reset()
	c.p.restart()
}

// timedFan times sim.FanController.FanControl.
type timedFan struct {
	fc  sim.FanController
	tr  *tracer
	fan *fold
}

func (f timedFan) FanControl(obs *sim.Observation) int {
	t := f.tr.now()
	l := f.fc.FanControl(obs)
	f.fan.add(f.tr.now() - t)
	return l
}

// wrapController returns a timing wrapper that implements exactly the
// optional sim interfaces the wrapped controller does. The simulator
// switches behaviour on them — a wrapper that always had FanControl would
// turn the fan loop on for the baselines — so the wrapper must not add or
// hide any.
func wrapController(ctl sim.Controller, p *stepProbe, sp *span) sim.Controller {
	layer := "policy"
	switch ctl.(type) {
	case *core.Controller, *core.FT:
		layer = "core"
	}
	base := &timedController{inner: ctl, p: p, control: sp.folder(layer + ".control")}
	fc, isFan := ctl.(sim.FanController)
	esc, isEsc := ctl.(sim.NumericEscalator)
	codec, isCodec := ctl.(sim.StateCodec)
	var fan timedFan
	if isFan {
		fanLayer := layer + ".control"
		if layer == "core" {
			fanLayer = "core.fan_control"
		}
		fan = timedFan{fc: fc, tr: p.tr, fan: sp.folder(fanLayer)}
	}
	switch {
	case isFan && isEsc && isCodec:
		return struct {
			*timedController
			timedFan
			sim.NumericEscalator
			sim.StateCodec
		}{base, fan, esc, codec}
	case isFan && isEsc:
		return struct {
			*timedController
			timedFan
			sim.NumericEscalator
		}{base, fan, esc}
	case isFan && isCodec:
		return struct {
			*timedController
			timedFan
			sim.StateCodec
		}{base, fan, codec}
	case isFan:
		return struct {
			*timedController
			timedFan
		}{base, fan}
	case isEsc && isCodec:
		return struct {
			*timedController
			sim.NumericEscalator
			sim.StateCodec
		}{base, esc, codec}
	case isEsc:
		return struct {
			*timedController
			sim.NumericEscalator
		}{base, esc}
	case isCodec:
		return struct {
			*timedController
			sim.StateCodec
		}{base, codec}
	default:
		return base
	}
}
