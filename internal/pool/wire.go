// Package pool is the coordinator side of the tecfand worker pool: it
// shards jobs into independently executable pieces, grants time-bounded
// leases over them to worker processes, and makes worker death survivable.
//
// The safety core is the fencing token: a per-shard counter bumped on every
// grant (and on every forced lease revocation), persisted durably before the
// grant is answered. A worker that stalls, is SIGKILLed, or is partitioned
// loses its lease; the shard is regranted under a higher token, and every
// late write — heartbeat, checkpoint upload, completion — arriving under the
// old token is rejected as a zombie write. Completion is idempotent under
// the current token, so a worker retrying a complete whose ack was lost
// cannot double-finish a shard: exactly-once end to end.
package pool

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Wire size bounds. A decoder must never let a hostile or corrupt length
// make it allocate unboundedly.
const (
	// MaxControlBytes bounds claim and heartbeat messages — a few short
	// strings and a token.
	MaxControlBytes = 1 << 16
	// MaxBlobBytes bounds checkpoint uploads and shard results (sim
	// snapshots and full traces ride in them).
	MaxBlobBytes = 64 << 20
)

// Typed wire-decode failures, distinguishable with errors.Is.
var (
	ErrWireTooLarge = errors.New("pool: wire message too large")
	ErrWireSyntax   = errors.New("pool: malformed wire message")
	ErrWireField    = errors.New("pool: invalid wire field")
)

// ClaimRequest asks the coordinator for a shard lease.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse grants a shard lease: the shard to run, the fencing token
// every subsequent write must carry, the lease duration the worker must
// renew within, and the last checkpoint the previous holder uploaded (nil on
// a fresh shard) for the worker to resume from.
type ClaimResponse struct {
	JobID      string    `json:"job_id"`
	Shard      ShardSpec `json:"shard"`
	Token      uint64    `json:"token"`
	LeaseMS    int64     `json:"lease_ms"`
	Checkpoint []byte    `json:"checkpoint,omitempty"`
	// Attempt numbers the grant for in-process callers: the shard's failed
	// attempts so far, plus one. It stays off the wire.
	Attempt int `json:"-"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	Token   uint64 `json:"token"`
}

// HeartbeatResponse carries the renewed lease duration.
type HeartbeatResponse struct {
	LeaseMS int64 `json:"lease_ms"`
}

// CheckpointUpload carries a mid-shard progress snapshot. The payload is
// opaque to the coordinator; it is handed verbatim to whichever worker next
// claims the shard.
type CheckpointUpload struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	Token   uint64 `json:"token"`
	Data    []byte `json:"data"`
}

// CompleteRequest carries a shard's final result payload, or with Error set
// and no result, the report of a failed attempt.
type CompleteRequest struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	ShardID string `json:"shard_id"`
	Token   uint64 `json:"token"`
	Result  []byte `json:"result,omitempty"`
	Error   string `json:"error,omitempty"`
}

// MaxErrorBytes bounds a failed attempt's report, which ends up in the
// job's status.
const MaxErrorBytes = 4 << 10

// decodeStrict is the shared wire decoder: bounded size, strict JSON (no
// unknown fields, no trailing garbage), and — because fencing tokens decode
// into uint64 — any negative, fractional, or overflowing token is a syntax
// error here, never a silent wrap to a token that might outfence a live
// lease.
func decodeStrict(data []byte, max int, v any) error {
	if len(data) > max {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrWireTooLarge, len(data), max)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrWireSyntax, err)
	}
	// A second value after the first (e.g. smuggled trailing JSON) is as
	// malformed as a syntax error.
	if dec.More() {
		return fmt.Errorf("%w: trailing data", ErrWireSyntax)
	}
	return nil
}

// checkID validates a wire identifier: non-empty and bounded, so log lines
// and map keys stay sane even for hostile senders.
func checkID(field, v string) error {
	if v == "" {
		return fmt.Errorf("%w: %s is empty", ErrWireField, field)
	}
	if len(v) > 128 {
		return fmt.Errorf("%w: %s is %d bytes (max 128)", ErrWireField, field, len(v))
	}
	return nil
}

// DecodeClaimRequest parses and validates a claim.
func DecodeClaimRequest(data []byte) (*ClaimRequest, error) {
	var cr ClaimRequest
	if err := decodeStrict(data, MaxControlBytes, &cr); err != nil {
		return nil, err
	}
	if err := checkID("worker", cr.Worker); err != nil {
		return nil, err
	}
	return &cr, nil
}

// DecodeClaimResponse parses a lease grant (the worker-side decoder).
func DecodeClaimResponse(data []byte) (*ClaimResponse, error) {
	var cr ClaimResponse
	if err := decodeStrict(data, MaxBlobBytes, &cr); err != nil {
		return nil, err
	}
	if err := checkID("job_id", cr.JobID); err != nil {
		return nil, err
	}
	if err := checkID("shard id", cr.Shard.ID); err != nil {
		return nil, err
	}
	if cr.LeaseMS <= 0 {
		return nil, fmt.Errorf("%w: lease_ms %d", ErrWireField, cr.LeaseMS)
	}
	return &cr, nil
}

// DecodeHeartbeat parses and validates a lease renewal.
func DecodeHeartbeat(data []byte) (*HeartbeatRequest, error) {
	var hb HeartbeatRequest
	if err := decodeStrict(data, MaxControlBytes, &hb); err != nil {
		return nil, err
	}
	for _, c := range []struct{ f, v string }{
		{"worker", hb.Worker}, {"job_id", hb.JobID}, {"shard_id", hb.ShardID},
	} {
		if err := checkID(c.f, c.v); err != nil {
			return nil, err
		}
	}
	return &hb, nil
}

// DecodeCheckpointUpload parses and validates a checkpoint upload.
func DecodeCheckpointUpload(data []byte) (*CheckpointUpload, error) {
	var up CheckpointUpload
	if err := decodeStrict(data, MaxBlobBytes, &up); err != nil {
		return nil, err
	}
	for _, c := range []struct{ f, v string }{
		{"worker", up.Worker}, {"job_id", up.JobID}, {"shard_id", up.ShardID},
	} {
		if err := checkID(c.f, c.v); err != nil {
			return nil, err
		}
	}
	return &up, nil
}

// DecodeComplete parses and validates a shard completion: a result or an
// error, never both.
func DecodeComplete(data []byte) (*CompleteRequest, error) {
	var cr CompleteRequest
	if err := decodeStrict(data, MaxBlobBytes, &cr); err != nil {
		return nil, err
	}
	for _, c := range []struct{ f, v string }{
		{"worker", cr.Worker}, {"job_id", cr.JobID}, {"shard_id", cr.ShardID},
	} {
		if err := checkID(c.f, c.v); err != nil {
			return nil, err
		}
	}
	switch {
	case len(cr.Error) > MaxErrorBytes:
		return nil, fmt.Errorf("%w: error is %d bytes (max %d)", ErrWireField, len(cr.Error), MaxErrorBytes)
	case cr.Error != "" && len(cr.Result) > 0:
		return nil, fmt.Errorf("%w: both a result and an error", ErrWireField)
	case cr.Error == "" && len(cr.Result) == 0:
		return nil, fmt.Errorf("%w: empty result payload", ErrWireField)
	}
	return &cr, nil
}
