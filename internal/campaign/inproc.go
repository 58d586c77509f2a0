package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/clockfault"
	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/netfault"
	"tecfan/internal/worker"
)

// RunOptions tunes the in-process episode runner.
type RunOptions struct {
	// Logf receives daemon/worker/client operational lines (default: silent).
	Logf func(format string, args ...any)
	// Poll is the job-wait poll interval (default 20ms).
	Poll time.Duration
}

func (o *RunOptions) logf() func(string, ...any) {
	if o != nil && o.Logf != nil {
		return o.Logf
	}
	return func(string, ...any) {}
}

func (o *RunOptions) poll() time.Duration {
	if o != nil && o.Poll > 0 {
		return o.Poll
	}
	return 20 * time.Millisecond
}

// RunEpisode runs one episode of the spec entirely in-process: a real daemon
// behind httptest, optional worker-pool loops, optional netfault proxy on the
// client path, optional diskfault FS and numfault schedule — and returns the
// client-observed history for the oracles.
//
// Two spec features only the exec driver (cmd/tecfan-crucible) can honor are
// rejected here: proc actions (there is no process to signal) and a disk
// crash point (an in-process daemon cannot die and restart). The meta-tests
// and the shrinker run on this path; full campaigns run on the exec path.
func RunEpisode(ctx context.Context, spec Spec, episode int, opts *RunOptions) (*History, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Procs) > 0 {
		return nil, fmt.Errorf("campaign: in-process runner cannot apply proc actions; use cmd/tecfan-crucible")
	}
	if spec.Disk != nil && spec.Disk.CrashAtOp > 0 {
		return nil, fmt.Errorf("campaign: in-process runner cannot honor disk.crash_at_op; use cmd/tecfan-crucible")
	}
	eff := spec.ForEpisode(episode)
	logf := opts.logf()

	// Each process identity gets its own FaultClock over the shared schedule,
	// so coordinator and workers carry independent skews from one spec.
	clockFor := func(proc string) (clockfault.Clock, error) {
		if eff.Clock == nil {
			return nil, nil
		}
		return clockfault.New(*eff.Clock, proc, &clockfault.Options{Logf: logf})
	}
	daemonClock, err := clockFor(TargetDaemon)
	if err != nil {
		return nil, err
	}

	stateDir, err := os.MkdirTemp("", "crucible-ep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	var fs diskfault.FS
	if eff.Disk != nil {
		ffs, err := diskfault.New(*eff.Disk, &diskfault.Options{Logf: logf})
		if err != nil {
			return nil, err
		}
		fs = ffs
	}
	srv, err := daemon.New(daemon.Config{
		StateDir:    stateDir,
		FS:          fs,
		NumFaults:   eff.Num,
		PoolEnabled: eff.Pool != nil,
		PoolChunk:   poolChunk(eff.Pool),
		PoolLeaseTTL: func() time.Duration {
			if eff.Pool != nil {
				return eff.Pool.LeaseTTL.Std()
			}
			return 0
		}(),
		Clock: daemonClock,
		Logf:  logf,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	// The client — and, in pool mode, every worker — reaches the daemon
	// through the chaos proxy when the spec has one; readiness probes and the
	// post-episode inspection always go direct — network chaos models flaky
	// paths to the coordinator, not a corrupted state store.
	baseURL := hs.URL
	if eff.Net != nil {
		proxy, err := netfault.New("127.0.0.1:0", strings.TrimPrefix(hs.URL, "http://"),
			*eff.Net, eff.NetSeed, &netfault.Options{Logf: logf})
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		baseURL = "http://" + proxy.Addr()
	}

	if eff.Pool != nil {
		stop, err := startPoolWorkers(baseURL, eff, clockFor, logf)
		if err != nil {
			return nil, err
		}
		defer stop()
	}

	rec := NewRecorder(eff.Name, episode)
	cl, err := client.New(client.Config{
		BaseURL: baseURL, Logf: logf, Seed: 1, Observer: rec.Observer(),
	})
	if err != nil {
		return nil, err
	}
	direct, err := client.New(client.Config{BaseURL: hs.URL, Logf: logf, Seed: 2})
	if err != nil {
		return nil, err
	}

	sampleReady(rec, hs.URL)
	for _, j := range eff.Jobs {
		key := IdempotencyKey(eff.Name, episode, j.ID)
		// Twice under one key: the replay feeds the exactly-once oracle.
		for replay := 0; replay < 2; replay++ {
			id, dedup, err := cl.SubmitWithKey(ctx, key, j)
			rec.Submission(j.ID, key, id, dedup, err)
		}
		sampleReady(rec, hs.URL)
	}
	for _, j := range eff.Jobs {
		v, err := cl.Wait(ctx, j.ID, opts.poll())
		if err != nil {
			return rec.History(), fmt.Errorf("campaign: waiting for job %s: %w", j.ID, err)
		}
		var result []byte
		if v.State == daemon.StateDone {
			// Inspection goes direct: the result bytes being judged are the
			// daemon's durable state, not a chaos-mangled copy of it.
			result, err = direct.Result(ctx, j.ID)
			if err != nil {
				return rec.History(), fmt.Errorf("campaign: fetching result of done job %s: %w", j.ID, err)
			}
		}
		rec.Result(v, result)
		sampleReady(rec, hs.URL)
	}
	views, err := direct.Jobs(ctx)
	if err != nil {
		return rec.History(), fmt.Errorf("campaign: final jobs listing: %w", err)
	}
	rec.Jobs(views)
	rec.Leases(srv.PoolLeases())
	sampleReady(rec, hs.URL)
	return rec.History(), nil
}

func poolChunk(p *PoolSpec) int {
	if p == nil {
		return 0
	}
	return p.Chunk
}

// startPoolWorkers launches the spec's worker loops against the coordinator,
// each armed with the same numeric fault schedule the daemon carries (the
// exec driver passes the same schedule via -numfault-schedule) and its own
// per-identity FaultClock (via -clockfault-schedule there).
func startPoolWorkers(coordURL string, eff Spec, clockFor func(string) (clockfault.Clock, error), logf func(string, ...any)) (stop func(), err error) {
	wctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, eff.Pool.Workers)
	started := 0
	for i := 0; i < eff.Pool.Workers; i++ {
		name := fmt.Sprintf("crucible-w%d", i)
		wclk, err := clockFor(name)
		if err != nil {
			cancel()
			return nil, err
		}
		wcl, err := client.New(client.Config{BaseURL: coordURL, Logf: logf, Seed: int64(10 + i), Clock: wclk})
		if err != nil {
			cancel()
			return nil, err
		}
		w, err := worker.New(worker.Config{
			Client:    wcl,
			Name:      name,
			Poll:      20 * time.Millisecond,
			Logf:      logf,
			Clock:     wclk,
			NumFaults: eff.Num,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		started++
		go func() {
			defer func() { done <- struct{}{} }()
			_ = w.Run(wctx)
		}()
	}
	return func() {
		cancel()
		for i := 0; i < started; i++ {
			<-done
		}
	}, nil
}

// sampleReady probes GET /readyz directly on the daemon (never through the
// proxy: a readiness sample lost to network chaos is not evidence about the
// daemon) and records the sample. Probe transport errors are skipped — the
// sticky oracle judges only what the daemon actually said.
func sampleReady(rec *Recorder, daemonURL string) {
	resp, err := http.Get(daemonURL + "/readyz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return
	}
	rec.Ready(resp.StatusCode == http.StatusOK, body.Reasons)
}

// Reference runs the spec's fault-free configuration (WithoutFaults) for the
// same episode and returns job ID -> durable result bytes — the byte-identity
// baseline the result-integrity oracle compares chaotic episodes against.
// Every job must complete in the reference run; anything else is an error in
// the spec itself, not a chaos finding.
func Reference(ctx context.Context, spec Spec, episode int, opts *RunOptions) (map[string][]byte, error) {
	h, err := RunEpisode(ctx, spec.WithoutFaults(), episode, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: reference run: %w", err)
	}
	ref := make(map[string][]byte, len(h.Results))
	for _, r := range h.Results {
		if r.State != string(daemon.StateDone) {
			return nil, fmt.Errorf("campaign: reference run: job %s ended %s: %s", r.JobID, r.State, r.Error)
		}
		ref[r.JobID] = r.Result
	}
	for _, j := range spec.Jobs {
		if _, ok := ref[j.ID]; !ok {
			return nil, fmt.Errorf("campaign: reference run: job %s produced no result", j.ID)
		}
	}
	return ref, nil
}
