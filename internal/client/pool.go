package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tecfan/internal/pool"
)

// Pool endpoints: the worker side of the coordinator protocol. Fencing
// rejections (410 Gone) and dropped jobs (404) are deliberate, permanent
// answers — 4xx, so the retry core surfaces them after a single attempt
// instead of hammering a coordinator that has already moved the shard on —
// and are mapped back onto pool.ErrFenced / pool.ErrShardGone so worker code
// can errors.Is against the same sentinels the coordinator uses.

// mapPoolErr translates a pool endpoint's status error onto the pool
// sentinels.
func mapPoolErr(err error) error {
	var se *StatusError
	if !errors.As(err, &se) {
		return err
	}
	switch se.Status {
	case http.StatusGone:
		return fmt.Errorf("%w: %s", pool.ErrFenced, se.Msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", pool.ErrShardGone, se.Msg)
	}
	return err
}

// PoolClaim asks the coordinator for a shard lease. A nil response with nil
// error means no work is currently available.
func (c *Client) PoolClaim(ctx context.Context, worker string) (*pool.ClaimResponse, error) {
	body, err := json.Marshal(pool.ClaimRequest{Worker: worker})
	if err != nil {
		return nil, fmt.Errorf("client: encoding claim: %w", err)
	}
	var data []byte
	status, err := c.call(ctx, http.MethodPost, "/pool/claim", body, nil, &data)
	if err != nil {
		return nil, mapPoolErr(err)
	}
	if status == http.StatusNoContent || len(data) == 0 {
		return nil, nil
	}
	return pool.DecodeClaimResponse(data)
}

// PoolHeartbeat renews a shard lease.
func (c *Client) PoolHeartbeat(ctx context.Context, hb *pool.HeartbeatRequest) (*pool.HeartbeatResponse, error) {
	body, err := json.Marshal(hb)
	if err != nil {
		return nil, fmt.Errorf("client: encoding heartbeat: %w", err)
	}
	var resp pool.HeartbeatResponse
	if _, err := c.call(ctx, http.MethodPost, "/pool/heartbeat", body, nil, &resp); err != nil {
		return nil, mapPoolErr(err)
	}
	return &resp, nil
}

// PoolCheckpoint uploads a shard progress snapshot.
func (c *Client) PoolCheckpoint(ctx context.Context, up *pool.CheckpointUpload) error {
	body, err := json.Marshal(up)
	if err != nil {
		return fmt.Errorf("client: encoding checkpoint upload: %w", err)
	}
	if _, err := c.call(ctx, http.MethodPost, "/pool/checkpoint", body, nil, nil); err != nil {
		return mapPoolErr(err)
	}
	return nil
}

// PoolComplete reports a shard's final result. Safe to retry: completion is
// idempotent under the granted token.
func (c *Client) PoolComplete(ctx context.Context, cr *pool.CompleteRequest) error {
	body, err := json.Marshal(cr)
	if err != nil {
		return fmt.Errorf("client: encoding complete: %w", err)
	}
	if _, err := c.call(ctx, http.MethodPost, "/pool/complete", body, nil, nil); err != nil {
		return mapPoolErr(err)
	}
	return nil
}

// PoolLeases fetches the coordinator's lease ledger (GET /pool/leases).
func (c *Client) PoolLeases(ctx context.Context) ([]pool.LeaseEvent, error) {
	var events []pool.LeaseEvent
	_, err := c.call(ctx, http.MethodGet, "/pool/leases", nil, nil, &events)
	return events, err
}

// PoolStats fetches the coordinator's counters (GET /pool/stats).
func (c *Client) PoolStats(ctx context.Context) (pool.Stats, error) {
	var st pool.Stats
	_, err := c.call(ctx, http.MethodGet, "/pool/stats", nil, nil, &st)
	return st, err
}
