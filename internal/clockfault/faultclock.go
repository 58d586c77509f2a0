package clockfault

import (
	"context"
	"fmt"
	"path"
	"sync"
	"time"

	"tecfan/internal/splitmix"
)

// Options tunes a FaultClock.
type Options struct {
	// Base is the clock being impaired (default OS; tests inject a Manual).
	Base Clock
	// Logf receives injection events (default: silent).
	Logf func(format string, args ...any)
}

// FaultClock is a Clock that injects the faults of a Schedule on top of a
// base clock. Wall reads pass through step/drift/freeze impairment; timer
// and sleep durations pass through jitter/late stretching; monotonic
// readings stay truthful (real machines' monotonic clocks do not lie — code
// must survive the wall clock lying while trusting Mono).
//
// Every wall read and every timer/sleep arm consumes one op from the
// process-local counter; rules trigger on op counts, and all probabilistic
// draws are a pure function of (seed, proc, op, rule index), so the same
// schedule against the same code path replays the identical fault sequence.
type FaultClock struct {
	base Clock
	proc string
	seed uint64
	logf func(string, ...any)

	mu     sync.Mutex
	op     int64
	rules  []Rule        // only the rules whose Proc glob matches proc
	idx    []int         // rules[i]'s index in the original schedule (for draws/logs)
	stepOn []bool        // step rule i has fired (for one log line per step)
	drift  []driftState  // parallel to rules; used for drift kinds
	freeze []freezeState // parallel to rules; used for freeze kinds
}

// driftState accumulates one drift rule's skew across its op window.
type driftState struct {
	active bool
	start  Mono          // monotonic instant of the first op inside the window
	acc    time.Duration // skew banked by windows already closed
}

// freezeState pins one freeze rule's wall value at window entry.
type freezeState struct {
	frozen bool
	wall   time.Time
}

// New compiles a schedule into a FaultClock for one process identity.
func New(sched Schedule, proc string, opts *Options) (*FaultClock, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	base := OS
	logf := func(string, ...any) {}
	if opts != nil && opts.Base != nil {
		base = opts.Base
	}
	if opts != nil && opts.Logf != nil {
		logf = opts.Logf
	}
	f := &FaultClock{
		base: base,
		proc: proc,
		seed: splitmix.Mix(uint64(sched.Seed) ^ splitmix.Mix(hashString(proc))),
		logf: logf,
	}
	for i, r := range sched.Rules {
		if r.Proc != "" {
			if ok, _ := path.Match(r.Proc, proc); !ok {
				continue
			}
		}
		f.rules = append(f.rules, r)
		f.idx = append(f.idx, i)
	}
	f.stepOn = make([]bool, len(f.rules))
	f.drift = make([]driftState, len(f.rules))
	f.freeze = make([]freezeState, len(f.rules))
	logf("clockfault: proc %q armed: %d/%d rules match (seed %d)",
		proc, len(f.rules), len(sched.Rules), sched.Seed)
	return f, nil
}

// Op returns the number of clock ops consumed so far (for tests and logs).
func (f *FaultClock) Op() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.op
}

// Now reads the impaired wall clock: base wall plus every fired step, plus
// accumulated drift, pinned by any active freeze window.
func (f *FaultClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op++
	return f.wallLocked(f.op)
}

func (f *FaultClock) wallLocked(op int64) time.Time {
	wall := f.base.Now()
	mono := f.base.Mono()
	var skew time.Duration
	for i, r := range f.rules {
		switch r.Kind {
		case KindStep:
			if op >= r.AtOp {
				if !f.stepOn[i] {
					f.stepOn[i] = true
					f.logf("clockfault: proc %q: wall step %v at op %d (rule %d)",
						f.proc, r.Offset.Std(), op, f.idx[i])
				}
				skew += r.Offset.Std()
			}
		case KindDrift:
			st := &f.drift[i]
			if r.inWindow(op) {
				if !st.active {
					st.active = true
					st.start = mono
					f.logf("clockfault: proc %q: drift %+.3g begins at op %d (rule %d)",
						f.proc, r.Rate, op, f.idx[i])
				}
				skew += st.acc + time.Duration(r.Rate*float64(mono.Sub(st.start)))
			} else {
				if st.active {
					// Window closed: bank the skew; it persists, frozen.
					st.acc += time.Duration(r.Rate * float64(mono.Sub(st.start)))
					st.active = false
				}
				skew += st.acc
			}
		}
	}
	wall = wall.Add(skew)
	for i, r := range f.rules {
		if r.Kind != KindFreeze {
			continue
		}
		st := &f.freeze[i]
		if r.inWindow(op) {
			if !st.frozen {
				st.frozen = true
				st.wall = wall
				f.logf("clockfault: proc %q: wall frozen at op %d (rule %d)", f.proc, op, f.idx[i])
			}
			return st.wall
		}
		st.frozen = false
	}
	return wall
}

// Mono, Since, and Deadline pass through untouched: the monotonic clock
// never lies, which is precisely why expiry arithmetic must live on it.
func (f *FaultClock) Mono() Mono                    { return f.base.Mono() }
func (f *FaultClock) Since(m Mono) time.Duration    { return f.base.Since(m) }
func (f *FaultClock) Deadline(d time.Duration) Mono { return f.base.Deadline(d) }

// Sleep sleeps for the jitter/late-stretched duration.
func (f *FaultClock) Sleep(ctx context.Context, d time.Duration) error {
	return f.base.Sleep(ctx, f.stretch(d))
}

// NewTimer arms a one-shot timer for the stretched duration.
func (f *FaultClock) NewTimer(d time.Duration) Timer {
	return f.base.NewTimer(f.stretch(d))
}

// NewTicker arms a ticker at the stretched interval. The draw happens once,
// at arm time — a ticker caught by a late window ticks slow for its whole
// life, the way a mis-programmed hardware timer would.
func (f *FaultClock) NewTicker(d time.Duration) Ticker {
	return f.base.NewTicker(f.stretch(d))
}

// stretch consumes an op and applies every active jitter/late rule to d.
func (f *FaultClock) stretch(d time.Duration) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op++
	for i, r := range f.rules {
		if (r.Kind != KindJitter && r.Kind != KindLate) || !r.inWindow(f.op) {
			continue
		}
		prob := r.Prob
		if prob == 0 {
			prob = 1
		}
		fire, frac := f.draw(f.op, f.idx[i])
		if fire >= prob {
			continue
		}
		var extra time.Duration
		if r.Kind == KindJitter {
			extra = time.Duration(frac * float64(r.Max.Std()))
		} else {
			extra = r.Max.Std()
		}
		f.logf("clockfault: proc %q: %s +%v on timer arm at op %d (rule %d)",
			f.proc, r.Kind, extra, f.op, f.idx[i])
		d += extra
	}
	return d
}

// draw derives two independent uniform [0,1) values for (op, rule) — one
// for the fire decision, one for the jitter magnitude — purely from the
// seed, so replays are exact.
func (f *FaultClock) draw(op int64, rule int) (fire, frac float64) {
	h := splitmix.Mix(f.seed ^ splitmix.Mix(uint64(op))<<1 ^ splitmix.Mix(uint64(rule))<<2)
	return unit(h), unit(splitmix.Mix(h + 0x9e3779b97f4a7c15))
}

// unit maps 64 hash bits onto [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hashString is FNV-1a, inlined to keep the package dependency-light.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// String describes the clock for log lines.
func (f *FaultClock) String() string {
	return fmt.Sprintf("clockfault.FaultClock(proc=%s, rules=%d)", f.proc, len(f.rules))
}
