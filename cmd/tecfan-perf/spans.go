package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Offsets
// are from the start of the traced pass, on the monotonic clock. A span's
// per-step and per-call children are not kept individually: they are folded
// into a count, a sum and a histogram per layer, which bounds memory however
// long the run.
type span struct {
	Layer string
	Track string // which goroutine family ran it, for the trace viewer
	Start time.Duration
	End   time.Duration
	// Prio orders overlapping spans: an instant covered by several belongs to
	// the highest, so a nested (inner) layer gets a higher priority than the
	// layer that called it.
	Prio   int
	Folded map[string]*fold
}

// fold is the folded form of many short calls into one layer.
type fold struct {
	N   int64
	Sum time.Duration
	H   hist
}

// folder returns the span's fold for a child layer, creating it. Callers on
// a per-step path keep the pointer instead of looking it up per call.
func (s *span) folder(layer string) *fold {
	if s.Folded == nil {
		s.Folded = map[string]*fold{}
	}
	f := s.Folded[layer]
	if f == nil {
		f = &fold{}
		s.Folded[layer] = f
	}
	return f
}

func (f *fold) add(d time.Duration) {
	f.N++
	f.Sum += d
	f.H.add(d)
}

// attribute splits a traced pass of length wall among layers. Every instant
// belongs to the highest-priority span covering it, and instants no span
// covers belong to rootLayer: for properly nested spans that is exactly a
// layer's span minus its children. Folded calls then move from their span's
// share to their own layer. The shares sum to wall exactly; a span whose
// folded calls exceed its own share leaves a negative remainder, which means
// the spans do not describe the pass and is an error.
func attribute(wall time.Duration, rootLayer string, spans []*span) (map[string]time.Duration, error) {
	type edge struct {
		at    time.Duration
		i     int
		start bool
	}
	clip := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		if d > wall {
			return wall
		}
		return d
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		a, b := clip(s.Start), clip(s.End)
		if b > a {
			edges = append(edges, edge{a, i, true}, edge{b, i, false})
		}
	}
	sort.Slice(edges, func(x, y int) bool { return edges[x].at < edges[y].at })

	excl := make([]time.Duration, len(spans))
	out := map[string]time.Duration{}
	active := map[int]bool{}
	prev := time.Duration(0)
	owner := func() int {
		best := -1
		for i := range active {
			if best < 0 || spans[i].Prio > spans[best].Prio ||
				(spans[i].Prio == spans[best].Prio && (spans[i].Start > spans[best].Start ||
					(spans[i].Start == spans[best].Start && i > best))) {
				best = i
			}
		}
		return best
	}
	for _, e := range edges {
		if seg := e.at - prev; seg > 0 {
			if o := owner(); o >= 0 {
				excl[o] += seg
			} else {
				out[rootLayer] += seg
			}
			prev = e.at
		}
		if e.start {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
	}
	out[rootLayer] += wall - prev

	for i, s := range spans {
		rest := excl[i]
		for _, layer := range sortedKeys(s.Folded) {
			f := s.Folded[layer]
			out[layer] += f.Sum
			rest -= f.Sum
		}
		if rest < 0 {
			return nil, fmt.Errorf("negative remainder %v in %s span [%v, %v]: its folded calls outlast its own share",
				rest, s.Layer, s.Start, s.End)
		}
		out[s.Layer] += rest
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tracer records the spans of one traced pass. Recording only appends under
// the lock; nothing is written out until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the offset from the pass start on the monotonic clock.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) add(s *span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// tracedPass is what a traced pass leaves for the trace file.
type tracedPass struct {
	Workload string
	Index    int
	Offset   time.Duration // pass start relative to the run start
	Wall     time.Duration
	Spans    []*span
}

// writeChromeTrace writes the spans of every traced pass as Chrome
// trace-event JSON (chrome://tracing, Perfetto): one process per workload,
// one thread per track, folded calls as span arguments.
func writeChromeTrace(w io.Writer, passes []tracedPass) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var events []event
	pids := map[string]int{}
	tids := map[[2]string]int{}
	for _, p := range passes {
		pid, ok := pids[p.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[p.Workload] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": p.Workload}})
		}
		tid := func(track string) int {
			k := [2]string{p.Workload, track}
			id, ok := tids[k]
			if !ok {
				id = len(tids) + 1
				tids[k] = id
				events = append(events, event{Name: "thread_name", Ph: "M", Pid: pid, Tid: id, Args: map[string]any{"name": track}})
			}
			return id
		}
		events = append(events, event{
			Name: "pass", Ph: "X", Ts: us(p.Offset), Dur: us(p.Wall), Pid: pid, Tid: tid("pass"),
			Args: map[string]any{"index": p.Index},
		})
		for _, s := range p.Spans {
			var args map[string]any
			if len(s.Folded) > 0 {
				args = map[string]any{}
				for _, layer := range sortedKeys(s.Folded) {
					f := s.Folded[layer]
					args[layer] = map[string]any{"calls": f.N, "sum_us": us(f.Sum)}
				}
			}
			events = append(events, event{
				Name: s.Layer, Ph: "X", Ts: us(p.Offset + s.Start), Dur: us(s.End - s.Start),
				Pid: pid, Tid: tid(s.Track), Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
