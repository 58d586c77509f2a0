package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"tecfan/internal/checkpoint"
)

// maxBodyBytes bounds a submission body; a JobSpec is a few hundred bytes.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// serveJSON answers a GET with what get reports.
func serveJSON[T any](get func() T) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, get()) }
}

// handleHealthz is pure liveness: the process is up and serving. It backs
// both /healthz (historical) and /livez (the conventional pair to /readyz).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyReasons collects every reason the daemon cannot usefully accept work
// right now. With probeDisk set it additionally write-probes the state dir —
// an expensive check (512 synced bytes through the FS seam, which also
// advances the diskfault op counter) that only the dedicated /readyz endpoint
// pays for; the cheap variant backs the per-response X-Tecfand-Ready header.
func (s *Server) readyReasons(probeDisk bool) []string {
	var reasons []string
	if s.Draining() {
		reasons = append(reasons, "draining")
	}
	s.mu.Lock()
	full := s.queueFullLocked()
	s.mu.Unlock()
	if full {
		reasons = append(reasons, "queue full")
	}
	if s.StorageDegraded() {
		reasons = append(reasons, "storage degraded: state dir out of space")
	} else if probeDisk {
		if err := s.stateDirWritable(); err != nil {
			reasons = append(reasons, "state dir unwritable: "+err.Error())
		}
	}
	if s.cfg.PoolEnabled && s.pool.LiveWorkers() == 0 {
		// Pool mode executes nothing in-process: with no worker polling,
		// accepted jobs would only sit in the lease table.
		reasons = append(reasons, "no live workers")
	}
	for _, d := range s.NumericDivergences() {
		// Sticky by design, like the FT controller's fail-safe: a daemon that
		// watched a solve diverge stays visibly unhealthy until restarted.
		reasons = append(reasons, "numeric fail-safe: job "+d.Job+": "+string(d.V.Kind))
	}
	return reasons
}

// ReadyHeader carries the daemon's cheap readiness reasons on every response:
// "ok" when ready, otherwise the "; "-joined reason list. External /readyz
// polling can only sample readiness *between* requests; this header pins the
// daemon's self-reported state to the exact response a client observed, which
// is what makes the crucible's readiness-consistency oracle sound (no 2xx
// submission may ever ride a response stamped draining or storage degraded).
const ReadyHeader = "X-Tecfand-Ready"

// withReadyHeader stamps ReadyHeader before the handler runs, using only the
// cheap readiness checks — never the state-dir write probe, which would turn
// every request into disk I/O and perturb scheduled disk-fault op counters.
func (s *Server) withReadyHeader(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reasons := s.readyReasons(false); len(reasons) > 0 {
			w.Header().Set(ReadyHeader, strings.Join(reasons, "; "))
		} else {
			w.Header().Set(ReadyHeader, "ok")
		}
		next.ServeHTTP(w, r)
	})
}

// handleReadyz is readiness: 503 with the reasons while the daemon cannot
// usefully accept work — draining, admission queue full, or the checkpoint
// state dir unwritable (a daemon that cannot checkpoint must not take jobs
// it would lose). Load balancers and the crucible's ready-consistency
// oracle gate on it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	reasons := s.readyReasons(true)
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready", "reasons": reasons,
		})
		return
	}
	s.mu.Lock()
	queued := s.queued
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "queue_depth": queued, "queue_cap": s.cfg.QueueDepth,
	})
}

// stateDirWritable probes that a checkpoint could land right now: it writes
// and syncs a few hundred bytes through the seam (a zero-byte create can
// succeed on a full disk — the bytes are what ENOSPC refuses). The probe
// file is scratch by design — it must NOT be a checkpoint: we are testing
// the directory, and an envelope write that failed halfway would leave a
// plausible-looking .ckpt for recover() to trip on.
func (s *Server) stateDirWritable() error {
	f, err := s.cfg.FS.CreateTemp(s.cfg.StateDir, ".readyz-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write(make([]byte, 512)); err != nil {
		_ = f.Close()
		_ = s.cfg.FS.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = s.cfg.FS.Remove(name)
		return err
	}
	_ = f.Close()
	return s.cfg.FS.Remove(name)
}

// handleSubmit admits a job. The token bucket and the bounded queue both
// shed with 429 and a Retry-After hint rather than buffering unboundedly;
// an Idempotency-Key header makes the submission safely retryable — a
// replayed token returns the original job with 200 instead of enqueuing a
// duplicate.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := requestID(r)
	if ok, wait := s.admit.take(); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
		writeError(w, http.StatusTooManyRequests, "daemon: submission rate limit")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	token := r.Header.Get("Idempotency-Key")
	id, dup, err := s.SubmitIdempotent(spec, token, rid)
	switch {
	case err == nil && dup:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "deduplicated": true})
	case err == nil:
		s.cfg.Logf("daemon: request %s: job %s submitted (idempotency=%q)", rid, id, token)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrStorageDegraded):
		// Retryable by design: degraded mode ends the moment space returns.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrSpecNotPersisted):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrDuplicateID):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResult serves the durable result file of a finished job; an
// unfinished job answers 409 with its current state so clients can poll.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if v.State != StateDone {
		writeJSON(w, http.StatusConflict, v)
		return
	}
	// The envelope checksum is verified on read: a result rotted on disk
	// surfaces as a 500 here instead of being served as truth.
	data, err := checkpoint.ReadFileFS(s.cfg.FS, s.resultPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "result file unreadable: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
