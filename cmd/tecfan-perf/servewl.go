package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/pool"
	"tecfan/internal/power"
	"tecfan/internal/worker"
	"tecfan/internal/workload"
)

// loadClients is the closed-loop client count of daemon-trace: two, but
// never more than the CPUs the benchmark process runs on.
func loadClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// jobPoll is how often a client polls a job it waits for.
const jobPoll = 5 * time.Millisecond

// stack is one in-process daemon behind a loopback HTTP server, plus the
// workers of pool mode.
type stack struct {
	dir    string
	srv    *daemon.Server
	hs     *http.Server
	served chan error
	url    string

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	closers     []func()
}

// startStack builds a daemon with its state in a fresh directory under
// workDir, serves it on a loopback port, starts nWorkers pool workers when
// pooled, and returns once /readyz answers 200.
func startStack(ctx context.Context, pe passEnv, st *serveTrace, pooled bool, nWorkers int) (*stack, error) {
	dir, err := os.MkdirTemp(pe.workDir, "state-*")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, served: make(chan error, 1), stopWorkers: func() {}}
	cfg := daemon.Config{StateDir: dir, Logf: func(string, ...any) {}}
	if pooled {
		cfg.PoolEnabled, cfg.PoolChunk = true, 1
	}
	if st != nil {
		cfg.FS = timedFS{FS: diskfault.OS, st: st}
	}
	if s.srv, err = daemon.New(cfg); err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = s.srv.Handler()
	if st != nil {
		h = st.handler(h)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()

	wctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		cl, release, err := st.clientFor(s.url, name, pe.seed+100+int64(i))
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, release)
		wcfg := worker.Config{Client: cl, Name: name, Poll: 20 * time.Millisecond}
		if st != nil {
			wcfg.OnClaim = func(*pool.ClaimResponse) { st.claimed(name) }
		}
		w, err := worker.New(wcfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = w.Run(wctx) // returns the cancellation that stops it
		}()
	}
	if err := s.awaitReady(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// awaitReady polls /readyz every millisecond until it answers 200.
func (s *stack) awaitReady(ctx context.Context) error {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after 30s (last: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the workers, the HTTP server and the daemon, waits for all of
// them, and removes the state directory.
func (s *stack) close() {
	s.stopWorkers()
	s.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.hs != nil {
		_ = s.hs.Shutdown(ctx) // a drain timeout only leaves connections to the exiting process
		<-s.served
	}
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx)
	}
	for _, c := range s.closers {
		c()
	}
	_ = os.RemoveAll(s.dir) // scratch state; a leftover is harmless and git-ignored
}

// jobSpecKey names a trace job spec for the golden digests.
func jobSpecKey(spec daemon.JobSpec) string {
	return fmt.Sprintf("%s/%d/%s", spec.Bench, spec.Threads, spec.Policy)
}

// traceJobs is one daemon-trace pass: every Table I benchmark under
// TECfan-FT, TECfan and Fan-only, in an order drawn from the seed. The set
// of jobs is fixed, so every pass does the same work; the seed only decides
// which jobs collide in the queue.
func traceJobs(pe passEnv) []daemon.JobSpec {
	benches := workload.Table1(power.DefaultLeakage())
	if pe.smoke {
		benches = benches[:2]
	}
	var jobs []daemon.JobSpec
	for _, b := range benches {
		for _, p := range []string{"TECfan-FT", "TECfan", "Fan-only"} {
			jobs = append(jobs, daemon.JobSpec{
				Kind: daemon.KindTrace, Bench: b.Name, Threads: b.Threads,
				Policy: p, Scale: pe.scales.traceJob,
			})
		}
	}
	rng := rand.New(rand.NewSource(pe.seed*7919 + int64(pe.pass)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// runJob submits one job, waits for it, and fetches its result.
func runJob(ctx context.Context, cl *client.Client, spec daemon.JobSpec) ([]byte, error) {
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	v, err := cl.Wait(ctx, id, jobPoll)
	if err != nil {
		return nil, err
	}
	if v.State != daemon.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
	}
	return cl.Result(ctx, id)
}

func runDaemonTrace(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error) {
	var st *serveTrace
	if tr != nil {
		st = newServeTrace(tr)
	}
	t0 := time.Now()
	s, err := startStack(ctx, pe, st, false, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var clients []*client.Client
	for i := 0; i < loadClients(); i++ {
		cl, release, err := st.clientFor(s.url, fmt.Sprintf("client-%d", i), pe.seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, release)
		clients = append(clients, cl)
	}
	setup := time.Since(t0)
	if pe.setupOnly {
		return &passResult{Setup: setup}, nil
	}

	jobs := traceJobs(pe)
	res := &passResult{Setup: setup, Attempted: len(jobs)}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	if st != nil {
		st.start()
	}
	t1 := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				js := time.Now()
				data, err := runJob(ctx, cl, jobs[i])
				lat := time.Since(js).Seconds()
				mu.Lock()
				if err != nil {
					res.Failed++
					res.Errors = append(res.Errors, err.Error())
				} else {
					res.Requests = append(res.Requests, lat)
					res.Outputs = append(res.Outputs, output{Key: jobSpecKey(jobs[i]), Data: canonicalResult(data)})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st != nil {
		st.stop()
		res.Wall = st.tr.now()
		if res.Layers, res.Spans, err = st.layers(res.Wall, res.Requests, 0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runPoolFig4(ctx context.Context, pe passEnv, tr *tracer) (*passResult, error) {
	var st *serveTrace
	if tr != nil {
		st = newServeTrace(tr)
	}
	const poolWorkers = 2
	t0 := time.Now()
	s, err := startStack(ctx, pe, st, true, poolWorkers)
	if err != nil {
		return nil, err
	}
	defer s.close()
	cl, release, err := st.clientFor(s.url, "client-0", pe.seed+1)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, release)
	setup := time.Since(t0)
	if pe.setupOnly {
		return &passResult{Setup: setup}, nil
	}

	res := &passResult{Setup: setup, Attempted: 1}
	if st != nil {
		st.start()
	}
	t1 := time.Now()
	data, jobErr := runJob(ctx, cl, daemon.JobSpec{Kind: daemon.KindFig4, Scale: pe.scales.fig4})
	res.Wall = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st != nil {
		st.stop()
		res.Wall = st.tr.now()
	}
	if jobErr != nil {
		res.Failed++
		res.Errors = append(res.Errors, jobErr.Error())
	} else {
		res.Requests = []float64{res.Wall.Seconds()}
		res.Outputs = []output{{Data: canonicalResult(data)}}
	}

	// Exactly once: every planned shard completed once, none re-leased.
	want, err := poolShards()
	if err != nil {
		return nil, err
	}
	stats, err := cl.PoolStats(ctx)
	if err != nil {
		return nil, err
	}
	if stats.Completes != int64(want) || stats.Grants != stats.Completes {
		res.Errors = append(res.Errors, fmt.Sprintf("pool not exactly-once: %d grants, %d completes for %d shards",
			stats.Grants, stats.Completes, want))
		res.Wrong++
	}
	if st != nil {
		if res.Layers, res.Spans, err = st.layers(res.Wall, res.Requests, poolWorkers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// canonicalResult strips what legitimately differs between identical jobs —
// the job ID — and re-encodes with sorted keys and numbers kept as their
// exact decimal text, so equal results hash equal. Wall-clock text never
// reaches a job result.
func canonicalResult(data []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		return data // not JSON: hash it raw, and the golden check reports it
	}
	if spec, ok := v["spec"].(map[string]any); ok {
		delete(spec, "id")
	}
	out, err := json.Marshal(v)
	if err != nil {
		return data
	}
	return out
}
