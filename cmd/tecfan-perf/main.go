// Command tecfan-perf is the repository's end-to-end benchmark. It runs five
// named workloads through the real entry points — the facade's Fig. 5/6,
// Table I and Fig. 7 drivers, an in-process tecfand under closed-loop
// clients, and a pooled sweep across two workers — checks every output
// against golden digests, and reports what a user waits for (set-up, pass
// time, request latency, allocation) with tracing off. Traced passes then
// time the calls into each layer from this package alone and split each
// pass's time into per-layer shares that sum to it.
//
//	go run . -seed 1 -out perf.json -trace-out perf-trace.json
//	go run . -workload fig56 -seed 3 -seconds 24 -trace 0
//	go run . -smoke
//	go run . -compare before.json after.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end ones with -trace 0, per-layer ones
// with -trace 1).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// scales sizes one pass of every workload.
type scales struct {
	fig56       float64 // WithScale of the Fig. 5/6 sweep
	table1      float64 // WithScale of Table I
	fig7Seconds int     // per-core trace length of Fig. 7
	traceJob    float64 // scale of each daemon-trace job
	fig4        float64 // scale of the pooled Fig. 4 job
}

var (
	fullScales  = scales{fig56: 0.05, table1: 1, fig7Seconds: 200, traceJob: 0.1, fig4: 0.5}
	smokeScales = scales{fig56: 0.02, table1: 0.02, fig7Seconds: 20, traceJob: 0.02, fig4: 0.02}
)

// passEnv is what one pass of a workload is generated from.
type passEnv struct {
	smoke   bool
	scales  scales
	seed    int64
	pass    int
	workDir string
	// setupOnly ends the pass once set-up is timed, before any work.
	setupOnly bool
}

// setupReps is how many set-up-only passes accompany each measured pass.
// A set-up takes about a millisecond, so one sample per pass would leave
// setup_s at the mercy of a single scheduler hiccup; the extra samples make
// its median steady at almost no cost.
const setupReps = 3

// output is one checked output of a pass; Key tells apart the outputs of a
// workload that has several (one per daemon-trace job spec).
type output struct {
	Key  string
	Data []byte
}

// passResult is one pass of one workload.
type passResult struct {
	Setup, Wall time.Duration
	// Setups are the set-up-only passes run just before a measured pass.
	Setups  []time.Duration
	AllocMB float64
	// RefMS is the host yardstick around the pass (mean of before and after).
	RefMS float64
	// Spent is everything the pass cost the run's time budget.
	Spent time.Duration
	// Attempted counts the user-visible requests of the pass (a facade call
	// or a daemon job); Failed those that errored or did not end done; Wrong
	// failed checks other than digests (pool exactly-once).
	Attempted, Failed, Wrong int
	Errors                   []string
	Outputs                  []output
	// Requests are per-request latencies in seconds.
	Requests []float64
	// Layers, Spans and SimSeconds (Σ simulated time of the pass's sim runs)
	// are set on traced passes only.
	Layers     map[string]float64
	SimSeconds float64
	Spans      []*span
	Offset     time.Duration
}

type workloadDef struct {
	Name string
	run  func(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error)
}

// workloads, in presentation order. BENCHMARK.json records why each exists.
var workloads = []workloadDef{
	{"fig56", runFig56},
	{"table1", runTable1},
	{"fig7", runFig7},
	{"daemon-trace", runDaemonTrace},
	{"pool-fig4", runPoolFig4},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tecfan-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the daemon-trace job order and the order of workloads within a round")
	secs := fs.Float64("seconds", 15, "measuring time per workload; passes repeat until the next would overrun it (at least one)")
	traceFlag := fs.Int("trace", 1, "1 adds traced passes (alternating with measured ones) and reports per-layer metrics; 0 reports end-to-end metrics only")
	smoke := fs.Bool("smoke", false, "tiny scales, one measured and one traced pass per workload")
	out := fs.String("out", "", "write the full result (every sample) as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans as Chrome trace-event JSON to this file")
	workDir := fs.String("work-dir", ".bench_build", "directory for the serving workloads' temporary state")
	goldenOut := fs.String("golden-out", "", "record the observed output digests into this golden file instead of checking them")
	compare := fs.Bool("compare", false, "compare two -out files: tecfan-perf -compare a.json b.json")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "tecfan-perf: -compare takes two result files")
			return 2
		}
		if err := runCompare(stdout, *specPath, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "tecfan-perf:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "tecfan-perf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	defs, err := selectWorkloads(*wl)
	if err != nil {
		fmt.Fprintln(stderr, "tecfan-perf:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "tecfan-perf: -trace must be 0 or 1")
		return 2
	}
	if !(*secs > 0) || *secs > 3600 {
		fmt.Fprintln(stderr, "tecfan-perf: -seconds must be in (0, 3600]")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "tecfan-perf:", err)
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "tecfan-perf:", err)
		return 2
	}

	opt := runOptions{
		seed: *seed, budget: time.Duration(*secs * float64(time.Second)),
		traced: *traceFlag == 1 || *smoke, smoke: *smoke, workDir: *workDir,
	}
	limit := time.Duration(len(defs))*(opt.budget+90*time.Second) + 60*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	rep, err := measure(ctx, defs, opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tecfan-perf:", err)
		return 2
	}
	mode := "full"
	if opt.smoke {
		mode = "smoke"
	}
	if *goldenOut != "" {
		if err := recordGolden(*goldenOut, golden, mode, rep); err != nil {
			fmt.Fprintln(stderr, "tecfan-perf:", err)
			return 2
		}
	} else {
		rep.checkGolden(golden, mode)
	}

	rep.print(stdout, stderr, *traceFlag == 1)
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintln(stderr, "tecfan-perf:", err)
			return 2
		}
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, rep); err != nil {
			fmt.Fprintln(stderr, "tecfan-perf:", err)
			return 2
		}
	}
	line := rep.resultLine(*traceFlag == 1)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "tecfan-perf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct || line.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: all, %s)", name, strings.Join(workloadNames(), ", "))
}

type runOptions struct {
	seed    int64
	budget  time.Duration
	traced  bool
	smoke   bool
	workDir string
}

// wlRun accumulates one workload's passes.
type wlRun struct {
	def      workloadDef
	measured []*passResult
	traced   []*passResult
	spent    time.Duration
	broken   int // passes that returned an error
	errors   []string
	failed   int
	attempts int
}

// due reports whether the workload runs another pass this round, and
// whether that pass is traced. Measured and traced passes alternate; a pass
// is started only when the time spent so far plus a typical pass fits the
// budget, and every workload gets at least one of each kind it needs.
func (w *wlRun) due(opt runOptions) (run, traced bool) {
	n := len(w.measured) + len(w.traced) + w.broken
	wantTraced := opt.traced && len(w.traced) < len(w.measured)
	if opt.smoke {
		switch {
		case w.broken > 0:
			return false, false
		case len(w.measured) == 0:
			return true, false
		case len(w.traced) == 0:
			return true, true
		}
		return false, false
	}
	if n == 0 {
		return true, false
	}
	if w.broken == n {
		return false, false // every pass failed: more would only repeat it
	}
	if opt.traced && len(w.traced) == 0 && len(w.measured) > 0 {
		return true, true
	}
	typical := w.spent / time.Duration(n)
	if w.spent+typical > opt.budget {
		return false, false
	}
	return true, wantTraced
}

// report is a whole run.
type report struct {
	Seed       int64             `json:"seed"`
	Smoke      bool              `json:"smoke"`
	Platform   string            `json:"platform"`
	GoMaxProcs int               `json:"gomaxprocs"`
	CPUs       int               `json:"cpus"`
	BudgetS    float64           `json:"budget_s"`
	HostRefMS  summary           `json:"host_ref_ms"`
	Golden     string            `json:"golden"` // checked, skipped: <why>, or recorded
	Workloads  []*workloadReport `json:"workloads"`
	started    time.Time
}

type workloadReport struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong_outputs"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are scaled to the nominal host speed; Raw holds the unscaled
	// timings.
	Metrics map[string]summary  `json:"metrics"`
	Raw     map[string]summary  `json:"raw"`
	Layers  map[string]summary  `json:"layers,omitempty"`
	Digests map[string][]string `json:"digests"`
	run     *wlRun
}

// measure runs the passes in rounds: round r runs the next pass of every
// workload that still has one due, in a seed-drawn order, so a slow spell
// on a shared host lands on every workload rather than on one.
func measure(ctx context.Context, defs []workloadDef, opt runOptions, log io.Writer) (*report, error) {
	rep := &report{
		Seed: opt.seed, Smoke: opt.smoke, Platform: platform(),
		GoMaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		BudgetS: opt.budget.Seconds(), started: time.Now(),
	}
	sc := fullScales
	if opt.smoke {
		sc = smokeScales
	}
	runs := make([]*wlRun, len(defs))
	for i, d := range defs {
		runs[i] = &wlRun{def: d}
		// Warm-up at smoke scale: pages the code in and grows the heap, so
		// the first measured pass is not the odd one out. Not recorded.
		pe := passEnv{smoke: true, scales: smokeScales, seed: opt.seed, workDir: opt.workDir}
		if _, err := d.run(ctx, pe, nil); err != nil {
			fmt.Fprintf(log, "tecfan-perf: %s warm-up: %v\n", d.Name, err)
		}
	}
	ref := newHostRef()
	rng := rand.New(rand.NewSource(opt.seed))
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run exceeded its time limit: %w", err)
		}
		any := false
		for _, i := range rng.Perm(len(runs)) {
			w := runs[i]
			run, traced := w.due(opt)
			if !run {
				continue
			}
			any = true
			pe := passEnv{smoke: opt.smoke, scales: sc, seed: opt.seed, pass: round, workDir: opt.workDir}
			w.record(runPass(ctx, w.def, pe, traced, rep.started, ref))
		}
		if !any {
			break
		}
	}
	var refs []float64
	for _, w := range runs {
		rep.Workloads = append(rep.Workloads, w.summarize())
		for _, passes := range [][]*passResult{w.measured, w.traced} {
			for _, p := range passes {
				refs = append(refs, p.RefMS)
			}
		}
	}
	rep.HostRefMS = summarize(refs)
	for _, w := range rep.Workloads {
		if w.Layers != nil {
			w.Layers["host.ref_ms"] = rep.HostRefMS
		}
	}
	return rep, nil
}

// runPass runs one pass, preceded, when it is measured, by its set-up-only
// passes, and measures its allocation and the host yardstick around it.
func runPass(ctx context.Context, def workloadDef, pe passEnv, traced bool, runStart time.Time, ref *hostRef) (*passResult, bool, error) {
	passStart := time.Now()
	var setups []time.Duration
	for i := 0; i < setupReps && !traced; i++ {
		spe := pe
		spe.setupOnly = true
		runtime.GC()
		sp, err := def.run(ctx, spe, nil)
		if err != nil {
			return &passResult{Spent: time.Since(passStart)}, traced, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sp.Setup)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	refBefore := ref.measure()
	// Start every pass from a collected heap, as a fresh CLI process would,
	// so no pass pays for the garbage of the one before it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr, err := def.run(ctx, pe, tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		return &passResult{Spent: time.Since(passStart)}, traced, err
	}
	pr.RefMS = (refBefore + ref.measure()) / 2
	pr.Setups = setups
	pr.Spent = time.Since(passStart)
	pr.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if pr.Requests == nil && pr.Failed == 0 {
		// A simulator pass is one facade call: the user waits for its cold
		// set-up and its work.
		pr.Requests = []float64{(pr.Setup + pr.Wall).Seconds()}
	}
	if traced {
		pr.Offset = tr.t0.Sub(runStart)
	}
	return pr, traced, nil
}

// speed scales the pass's timings to the nominal host speed.
func (p *passResult) speed() float64 { return refNominalMS / p.RefMS }

func (w *wlRun) record(pr *passResult, traced bool, err error) {
	w.spent += pr.Spent
	if err != nil {
		w.broken++
		w.failed++
		w.attempts++
		w.errors = append(w.errors, err.Error())
		return
	}
	w.attempts += pr.Attempted
	w.failed += pr.Failed
	w.errors = append(w.errors, pr.Errors...)
	if traced {
		w.traced = append(w.traced, pr)
	} else {
		w.measured = append(w.measured, pr)
	}
}

// summarize folds the passes into the workload's report and runs every
// check that needs no golden file: traced and measured passes produced the
// same outputs, the exact counts repeat, and the layer shares sum to the
// traced pass.
func (w *wlRun) summarize() *workloadReport {
	wr := &workloadReport{
		Name: w.def.Name, Correct: true, Attempted: w.attempts, Failed: w.failed, Errors: w.errors,
		Metrics: timings(w.measured, (*passResult).speed),
		Raw:     timings(w.measured, func(*passResult) float64 { return 1 }),
		Digests: map[string][]string{}, run: w,
	}
	fail := func(format string, args ...any) {
		wr.Correct = false
		wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
	}
	var alloc, rate []float64
	for _, p := range w.measured {
		alloc = append(alloc, p.AllocMB)
		if len(p.Requests) > 1 {
			rate = append(rate, float64(len(p.Requests))/(p.speed()*p.Wall.Seconds()))
		}
	}
	wr.Metrics["alloc_mb"] = summarize(alloc)
	if len(rate) > 0 {
		wr.Metrics["jobs_per_s"] = summarize(rate)
	}
	wall := wr.Metrics["wall_s"].Samples
	if len(w.traced) > 0 && w.traced[0].SimSeconds > 0 {
		// The simulated time of a pass is fixed by its work, so the traced
		// pass's sum divides every measured pass's wall time.
		var speed []float64
		for _, x := range wall {
			speed = append(speed, w.traced[0].SimSeconds/x)
		}
		wr.Metrics["sim_speed"] = summarize(speed)
	}

	// Digests by key; every pass, traced or not, must agree.
	seen := map[string]map[string]bool{}
	for _, p := range append(append([]*passResult(nil), w.measured...), w.traced...) {
		if p.Wrong > 0 {
			wr.Correct = false
			wr.Wrong += p.Wrong
		}
		for _, o := range p.Outputs {
			sum := sha256.Sum256(o.Data)
			d := hex.EncodeToString(sum[:])
			if seen[o.Key] == nil {
				seen[o.Key] = map[string]bool{}
			}
			if !seen[o.Key][d] {
				seen[o.Key][d] = true
				wr.Digests[o.Key] = append(wr.Digests[o.Key], d)
			}
		}
	}
	for _, k := range sortedKeys(wr.Digests) {
		if len(wr.Digests[k]) > 1 {
			wr.Wrong++
			fail("output %q differs between passes (traced or not): %d distinct digests", k, len(wr.Digests[k]))
		}
	}

	if len(w.traced) == 0 {
		return wr
	}
	wr.Layers = map[string]summary{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range w.traced {
			xs = append(xs, p.Layers[m.Name])
		}
		wr.Layers[m.Name] = summarize(xs)
	}
	var tw, scaled []float64
	for _, p := range w.traced {
		tw = append(tw, p.Wall.Seconds())
		scaled = append(scaled, p.speed()*p.Wall.Seconds())
		var sum float64
		for _, name := range shareLayers {
			sum += p.Layers[name]
		}
		if d := sum - p.Wall.Seconds(); d > 1e-6 || d < -1e-6 {
			fail("layer shares sum to %.6fs, traced pass took %.6fs", sum, p.Wall.Seconds())
		}
		for name := range p.Layers {
			if !isPerLayer(name) {
				fail("traced pass reported unknown layer metric %q", name)
			}
		}
		for _, name := range exactCounts {
			if a, b := p.Layers[name], w.traced[0].Layers[name]; a != b { //lint:tecfan-ignore floatcmp -- integer counts carried in float64: exact equality is the check
				fail("exact count %s differs between traced passes: %v vs %v", name, a, b)
			}
		}
	}
	wr.Layers["trace.wall_s"] = summarize(tw)
	if len(wall) > 0 {
		oh := median(scaled)/median(wall) - 1
		wr.Layers["trace.overhead"] = summarize([]float64{oh})
	}
	return wr
}

// timings summarizes the set-up, wall and request times of measured passes,
// each pass's times multiplied by scale(pass).
func timings(passes []*passResult, scale func(*passResult) float64) map[string]summary {
	var setup, wall, jobP50, requests []float64
	for _, p := range passes {
		k := scale(p)
		setup = append(setup, k*p.Setup.Seconds())
		for _, s := range p.Setups {
			setup = append(setup, k*s.Seconds())
		}
		wall = append(wall, k*p.Wall.Seconds())
		var req []float64
		for _, r := range p.Requests {
			req = append(req, k*r)
		}
		if len(req) > 0 {
			jobP50 = append(jobP50, median(req))
		}
		requests = append(requests, req...)
	}
	// One sample per pass, like every other metric, so its quartiles show
	// pass-to-pass spread and not the mix of job sizes; the tail comes from
	// every request of the run.
	jobs := summarize(jobP50)
	jobs.TailP, jobs.Tail = 0, 0
	if p, ok := tailPercentile(len(requests)); ok {
		jobs.TailP, jobs.Tail = p, percentile(requests, p)
	}
	return map[string]summary{"setup_s": summarize(setup), "wall_s": summarize(wall), "job_p50_s": jobs}
}

// failedRatio is failed or refused operations over attempted ones.
func (w *workloadReport) failedRatio() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// platform names what the golden digests depend on: floating-point results
// are reproducible for a fixed OS, architecture and GOAMD64 level.
func platform() string {
	p := runtime.GOOS + "/" + runtime.GOARCH
	if runtime.GOARCH == "amd64" {
		level := "v1"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "GOAMD64" && s.Value != "" {
					level = s.Value
				}
			}
		}
		p += " GOAMD64=" + level
	}
	return p
}

// resultLine is the benchmark's one-line result.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine(layers bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	prefix := len(r.Workloads) > 1
	for _, w := range r.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		name := func(m string) string {
			if prefix {
				return w.Name + "/" + m
			}
			return m
		}
		defs, from := endToEnd, w.Metrics
		if layers {
			defs, from = perLayer, w.Layers
		}
		for _, m := range defs {
			line.Metrics[name(m.Name)] = lineMetric{Value: from[m.Name].Median, Unit: m.Unit}
		}
	}
	return line
}

func (r *report) print(stdout, stderr io.Writer, layers bool) {
	fmt.Fprintf(stdout, "tecfan-perf: %s, GOMAXPROCS=%d, seed %d, %.0fs per workload, golden %s\n",
		r.Platform, r.GoMaxProcs, r.Seed, r.BudgetS, r.Golden)
	fmt.Fprintf(stdout, "host.ref_ms median %.3f [%.3f, %.3f] n=%d; timings are scaled to host.ref_ms = %g, raw.* are not\n",
		r.HostRefMS.Median, r.HostRefMS.Q1, r.HostRefMS.Q3, r.HostRefMS.N, refNominalMS)
	for _, w := range r.Workloads {
		status := "ok"
		if !w.Correct || w.Failed > 0 {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "\n%s: %s, %d attempted, %d failed, failed_ratio %.4g, wrong_outputs %d\n",
			w.Name, status, w.Attempted, w.Failed, w.failedRatio(), w.Wrong)
		fmt.Fprintf(stdout, "  %-26s %12s %12s %12s %4s  %-6s %s\n", "metric", "median", "q1", "q3", "n", "unit", "tail")
		row := func(name, unit string, s summary) {
			tail := ""
			if s.TailP > 0 {
				tail = fmt.Sprintf("p%g=%.6g", s.TailP, s.Tail)
			}
			fmt.Fprintf(stdout, "  %-26s %12.6g %12.6g %12.6g %4d  %-6s %s\n", name, s.Median, s.Q1, s.Q3, s.N, unit, tail)
		}
		for _, m := range endToEnd {
			row(m.Name, m.Unit, w.Metrics[m.Name])
		}
		for _, m := range rates {
			if s, ok := w.Metrics[m.Name]; ok {
				row(m.Name, m.Unit, s)
			}
		}
		for _, name := range sortedKeys(w.Raw) {
			row("raw."+name, "s", w.Raw[name])
		}
		if layers && w.Layers != nil {
			for _, m := range perLayer {
				if s := w.Layers[m.Name]; s.Median != 0 || m.Name == "trace.overhead" {
					row(m.Name, m.Unit, s)
				}
			}
			if oh := w.Layers["trace.overhead"].Median; !r.Smoke && (oh < -0.05 || oh > 0.15) {
				fmt.Fprintf(stderr, "tecfan-perf: warning: %s traced pass is %+.1f%% off the measured one; the replay no longer describes the measured program\n", w.Name, 100*oh)
			}
		}
		for _, e := range w.Errors {
			fmt.Fprintf(stdout, "  error: %s\n", e)
		}
	}
	fmt.Fprintln(stdout)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeTraceFile(path string, r *report) error {
	var passes []tracedPass
	for _, w := range r.Workloads {
		for i, p := range w.run.traced {
			passes = append(passes, tracedPass{Workload: w.Name, Index: i, Offset: p.Offset, Wall: p.Wall, Spans: p.Spans})
		}
	}
	f, err := os.Create(filepath.Clean(path))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, passes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
