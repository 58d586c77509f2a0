package daemon

import (
	"errors"
	"io"
	"net/http"

	"tecfan/internal/pool"
)

// Pool protocol endpoints (mounted only when PoolEnabled). Status mapping:
// a stale fencing token answers 410 Gone and a dropped job 404 — both 4xx,
// so the hardened client surfaces them to the worker after one attempt
// instead of retrying a verdict that will never change.

// writePoolError maps the coordinator's sentinels onto statuses.
func writePoolError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pool.ErrFenced):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, pool.ErrShardGone):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, pool.ErrWireSyntax), errors.Is(err, pool.ErrWireField),
		errors.Is(err, pool.ErrWireTooLarge):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// poolCall serves one pool protocol request: the body, read under the
// pool's own blob bound (checkpoint uploads legitimately exceed the submit
// endpoint's 1 MiB cap), is decoded and handed to call, whose answer is
// written back — 204 when there is none.
func poolCall[T any](decode func([]byte) (T, error), call func(T) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, pool.MaxBlobBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		req, err := decode(data)
		var resp any
		if err == nil {
			resp, err = call(req)
		}
		switch {
		case err != nil:
			writePoolError(w, err)
		case resp == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	}
}

var poolOK = map[string]string{"status": "ok"}

// poolClaim grants a shard, marking its job running.
func (s *Server) poolClaim(cr *pool.ClaimRequest) (any, error) {
	grant, err := s.pool.Claim(cr.Worker)
	if err != nil || grant == nil || s.begin(grant) == nil {
		return nil, err
	}
	return grant, nil
}

func (s *Server) poolHeartbeat(hb *pool.HeartbeatRequest) (any, error) {
	return s.pool.Heartbeat(hb)
}

func (s *Server) poolCheckpoint(up *pool.CheckpointUpload) (any, error) {
	return poolOK, s.pool.UploadCheckpoint(up)
}

// poolComplete records a shard's result or failure, and settles the job
// when that was its last word.
func (s *Server) poolComplete(cr *pool.CompleteRequest) (any, error) {
	if err := s.pool.Complete(cr); err != nil {
		return nil, err
	}
	s.settle(cr.JobID)
	return poolOK, nil
}
