package pool

import (
	"context"
	"sync"
)

// maxThresholds caps the threshold memo. A key's scale comes from the
// client, so the key space is unbounded; at the cap the memo clears and
// starts over. Eight Table I benchmarks at a handful of scales fit well
// inside it.
const maxThresholds = 64

// thresholdKey is everything a derived threshold depends on: the base
// scenario is fault-free and runs at the fastest fan level under Fan-only,
// so only the benchmark and its scale are left.
type thresholdKey struct {
	bench   string
	threads int
	scale   float64
}

// thresholdMemo keeps each key's derived threshold. Only a successful
// derivation is stored, so an error, a cancellation or a panic leaves the
// key for the next caller to derive again. Callers that miss at the same
// time each derive it, and get the same value.
type thresholdMemo struct {
	mu sync.Mutex
	m  map[thresholdKey]float64
}

// get returns key's threshold, calling derive, without the lock held, if
// no caller has stored it yet.
func (m *thresholdMemo) get(ctx context.Context, key thresholdKey, derive func(context.Context) (float64, error)) (float64, error) {
	m.mu.Lock()
	v, ok := m.m[key]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := derive(ctx)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	if m.m == nil || len(m.m) >= maxThresholds {
		m.m = map[thresholdKey]float64{}
	}
	m.m[key] = v
	m.mu.Unlock()
	return v, nil
}
