package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tecfan/internal/client"
	"tecfan/internal/diskfault"
	"tecfan/internal/pool"
)

// serveTrace times the serving workloads at three seams: an
// http.RoundTripper on every client, middleware around the daemon's handler,
// and a diskfault.FS wrapper under its state directory. The seams are
// installed for the whole pass but record only between start and stop, so
// set-up and teardown traffic stays out of the traced work.
type serveTrace struct {
	tr *tracer
	on atomic.Bool

	mu        sync.Mutex
	calls     map[string][]float64 // client call kind -> attempt durations, s
	handlers  []float64            // handler durations, s
	retries   int
	fsyncs    int
	bytes     int64
	lastMerge time.Duration // last rename of a job result
	lastDone  time.Duration // end of the last shard completion handler
	claims    int
	claimHits int
	jobs      map[string]*jobPhases
	claimedAt map[string]time.Duration // worker -> current shard start
	shards    []time.Duration
}

// jobPhases is what the 5 ms status polls saw of one job.
type jobPhases struct {
	submitted, running, done time.Duration
	seenRunning, seenDone    bool
}

func newServeTrace(tr *tracer) *serveTrace {
	return &serveTrace{
		tr: tr, calls: map[string][]float64{},
		jobs: map[string]*jobPhases{}, claimedAt: map[string]time.Duration{},
	}
}

// start begins recording; offsets count from here.
func (s *serveTrace) start() {
	s.tr.t0 = time.Now()
	s.on.Store(true)
}

func (s *serveTrace) stop() { s.on.Store(false) }

// recording reports whether the trace is live. Nil-safe, so untraced passes
// can share the same code.
func (s *serveTrace) recording() bool { return s != nil && s.on.Load() }

func (s *serveTrace) span(layer, track string, prio int, start, end time.Duration) {
	s.tr.add(&span{Layer: layer, Track: track, Prio: prio, Start: start, End: end})
}

// callKind names an API call by method and path shape.
func callKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/jobs":
		return "submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/result"):
		return "result"
	case method == http.MethodGet && strings.HasPrefix(path, "/jobs/"):
		return "poll"
	case strings.HasPrefix(path, "/pool/"):
		return strings.TrimPrefix(path, "/pool/")
	}
	return strings.TrimPrefix(path, "/")
}

// clientFor builds one client with its own connection pool; traced passes
// time every attempt it makes. The returned func releases its connections.
func (s *serveTrace) clientFor(baseURL, track string, seed int64) (*client.Client, func(), error) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tp
	cfg := client.Config{BaseURL: baseURL, Seed: seed}
	if s != nil {
		rt = &timedRT{base: tp, st: s, track: track}
		cfg.Observer = func(oc client.ObservedCall) {
			if oc.Retry > 0 && s.recording() {
				s.mu.Lock()
				s.retries++
				s.mu.Unlock()
			}
		}
	}
	cfg.HTTPClient = &http.Client{Transport: rt}
	cl, err := client.New(cfg)
	return cl, tp.CloseIdleConnections, err
}

// timedRT times one HTTP attempt from request to body close: the client
// reads the whole body before closing it, so that is when the call ends.
type timedRT struct {
	base  http.RoundTripper
	st    *serveTrace
	track string
}

func (t *timedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.st.recording() {
		return t.base.RoundTrip(req)
	}
	start := t.st.tr.now()
	kind := callKind(req.Method, req.URL.Path)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.st.endCall(t.track, kind, "", start, 0, nil)
		return resp, err
	}
	jobID := ""
	if kind == "poll" {
		jobID = strings.TrimPrefix(req.URL.Path, "/jobs/")
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rt: t, kind: kind, jobID: jobID, start: start, status: resp.StatusCode,
		keep: kind == "poll" || kind == "submit"}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	rt     *timedRT
	kind   string
	jobID  string
	start  time.Duration
	status int
	keep   bool
	buf    bytes.Buffer
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		var body []byte
		if b.keep {
			body = b.buf.Bytes()
		}
		b.rt.st.endCall(b.rt.track, b.kind, b.jobID, b.start, b.status, body)
	})
	return err
}

// endCall records one finished client attempt, and for job submissions and
// status polls the job phase the response shows.
func (s *serveTrace) endCall(track, kind, jobID string, start time.Duration, status int, body []byte) {
	end := s.tr.now()
	// Client calls rank below worker shards: a call made while a shard runs
	// (a status poll, or the worker's own upload inside its shard) counts as
	// shard time, so client.wire_s is the wire time no shard covers.
	s.span("client", track, 0, start, end)
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if body != nil && status < 300 {
		_ = json.Unmarshal(body, &view) // a body that is not a job view just carries no phase
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[kind] = append(s.calls[kind], (end - start).Seconds())
	switch kind {
	case "claim":
		s.claims++
		if status == http.StatusOK {
			s.claimHits++
		}
	case "complete":
		if at, ok := s.claimedAt[track]; ok && status < 300 {
			s.shards = append(s.shards, end-at)
			s.span("worker", track, 1, at, end)
			delete(s.claimedAt, track)
		}
	case "submit":
		if view.ID != "" {
			s.jobs[view.ID] = &jobPhases{submitted: end}
		}
	case "poll":
		if ph := s.jobs[jobID]; ph != nil {
			switch view.State {
			case "running":
				if !ph.seenRunning {
					ph.running, ph.seenRunning = end, true
				}
			case "done", "failed", "canceled":
				if !ph.seenDone {
					ph.done, ph.seenDone = end, true
					if !ph.seenRunning {
						// Ran entirely between two polls.
						ph.running, ph.seenRunning = ph.submitted, true
					}
				}
			}
		}
	}
}

// claimed is worker.Config.OnClaim for a traced worker: its shard starts.
func (s *serveTrace) claimed(track string) {
	if !s.recording() {
		return
	}
	now := s.tr.now()
	s.mu.Lock()
	s.claimedAt[track] = now
	s.mu.Unlock()
}

// handler is the middleware around the daemon's HTTP API.
func (s *serveTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.recording() {
			next.ServeHTTP(w, r)
			return
		}
		start := s.tr.now()
		next.ServeHTTP(w, r)
		end := s.tr.now()
		s.span("daemon.handler", "daemon-http", 2, start, end)
		s.mu.Lock()
		s.handlers = append(s.handlers, (end - start).Seconds())
		if r.URL.Path == "/pool/complete" && end > s.lastDone {
			s.lastDone = end
		}
		s.mu.Unlock()
	})
}

// timedFS is the diskfault.FS every durable byte of the daemon goes
// through, with writes, syncs and renames timed.
type timedFS struct {
	diskfault.FS
	st *serveTrace
}

func (f timedFS) wrap(file diskfault.File, err error) (diskfault.File, error) {
	if err != nil {
		return file, err
	}
	return timedFile{File: file, st: f.st}, nil
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f timedFS) Create(name string) (diskfault.File, error) { return f.wrap(f.FS.Create(name)) }

func (f timedFS) CreateTemp(dir, pattern string) (diskfault.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f timedFS) Rename(oldpath, newpath string) error {
	if !f.st.recording() {
		return f.FS.Rename(oldpath, newpath)
	}
	start := f.st.tr.now()
	err := f.FS.Rename(oldpath, newpath)
	end := f.st.tr.now()
	f.st.span("checkpoint.rename", "storage", 3, start, end)
	if strings.HasSuffix(newpath, ".result") {
		f.st.mu.Lock()
		f.st.lastMerge = end
		f.st.mu.Unlock()
	}
	return err
}

func (f timedFS) SyncDir(dir string) error {
	if !f.st.recording() {
		return f.FS.SyncDir(dir)
	}
	return f.st.fsync(func() error { return f.FS.SyncDir(dir) })
}

func (s *serveTrace) fsync(sync func() error) error {
	start := s.tr.now()
	err := sync()
	s.span("checkpoint.fsync", "storage", 3, start, s.tr.now())
	s.mu.Lock()
	s.fsyncs++
	s.mu.Unlock()
	return err
}

type timedFile struct {
	diskfault.File
	st *serveTrace
}

func (f timedFile) Write(p []byte) (int, error) {
	if !f.st.recording() {
		return f.File.Write(p)
	}
	start := f.st.tr.now()
	n, err := f.File.Write(p)
	f.st.span("checkpoint.write", "storage", 3, start, f.st.tr.now())
	f.st.mu.Lock()
	f.st.bytes += int64(n)
	f.st.mu.Unlock()
	return n, err
}

func (f timedFile) Sync() error {
	if !f.st.recording() {
		return f.File.Sync()
	}
	return f.st.fsync(f.File.Sync)
}

// layers computes the serving layer metrics of a traced pass of length
// wall. jobLatency are the pass's per-job latencies, s; workers is how many
// shard executors ran.
func (s *serveTrace) layers(wall time.Duration, jobLatency []float64, workers int) (map[string]float64, []*span, error) {
	spans := s.tr.snapshot()
	shares, err := attribute(wall, "daemon", spans)
	if err != nil {
		return nil, nil, err
	}
	m := shareMetrics(shares)
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := func(xs []float64) float64 { return median(xs) * 1e3 }
	m["client.submit_ms_p50"] = ms(s.calls["submit"])
	m["client.poll_ms_p50"] = ms(s.calls["poll"])
	m["client.result_ms_p50"] = ms(s.calls["result"])
	m["client.retries"] = float64(s.retries)
	m["daemon.handler_ms_p50"] = ms(s.handlers)
	var queue, exec []float64
	for _, id := range sortedKeys(s.jobs) {
		ph := s.jobs[id]
		if ph.seenDone {
			queue = append(queue, (ph.running - ph.submitted).Seconds())
			exec = append(exec, (ph.done - ph.running).Seconds())
		}
	}
	m["daemon.queue_wait_s_p50"] = median(queue)
	m["daemon.exec_s_p50"] = median(exec)
	m["daemon.job_p90_s"] = percentile(jobLatency, 90)
	m["checkpoint.fsyncs"] = float64(s.fsyncs)
	m["checkpoint.bytes"] = float64(s.bytes)
	m["pool.claims"] = float64(s.claims)
	if s.claims > 0 {
		m["pool.claim_hit_ratio"] = float64(s.claimHits) / float64(s.claims)
	}
	m["pool.claim_ms_p50"] = ms(s.calls["claim"])
	m["pool.upload_ms_p50"] = ms(s.calls["checkpoint"])
	m["pool.complete_ms_p50"] = ms(s.calls["complete"])
	if s.lastDone > 0 && s.lastMerge > s.lastDone {
		m["pool.merge_s"] = (s.lastMerge - s.lastDone).Seconds()
	}
	var shardSecs []float64
	var busy time.Duration
	for _, d := range s.shards {
		shardSecs = append(shardSecs, d.Seconds())
		busy += d
	}
	m["worker.shard_s_p50"] = median(shardSecs)
	if workers > 0 && wall > 0 {
		m["worker.utilization"] = busy.Seconds() / (float64(workers) * wall.Seconds())
	}
	return m, spans, nil
}

// poolShards is how many shards a fig4 job plans into at chunk 1.
func poolShards() (int, error) {
	shards, err := pool.Plan(pool.SweepSpec{Kind: pool.KindFig4, Chunk: 1})
	return len(shards), err
}
