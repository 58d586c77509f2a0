package clockfault

import (
	"context"
	"strings"
	"testing"
	"time"

	"tecfan/internal/schedfile"
)

func TestMonoArithmetic(t *testing.T) {
	var a Mono
	b := a.Add(3 * time.Second)
	if got := b.Sub(a); got != 3*time.Second {
		t.Fatalf("Sub = %v, want 3s", got)
	}
	if !b.After(a) || b.Before(a) || a.After(b) {
		t.Fatalf("ordering broken: a=%v b=%v", a, b)
	}
}

func TestOSClockSmoke(t *testing.T) {
	m1 := OS.Mono()
	time.Sleep(time.Millisecond)
	if el := OS.Since(m1); el <= 0 {
		t.Fatalf("Since = %v, want > 0", el)
	}
	if dl := OS.Deadline(time.Hour); !dl.After(OS.Mono()) {
		t.Fatalf("Deadline(1h) not in the future")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := OS.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep on canceled ctx = %v, want context.Canceled", err)
	}
	if err := OS.Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("short Sleep = %v", err)
	}
}

func TestManualAdvanceAndStep(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := NewManual(start)
	m0 := clk.Mono()
	clk.Advance(5 * time.Second)
	if got := clk.Since(m0); got != 5*time.Second {
		t.Fatalf("Since after Advance = %v, want 5s", got)
	}
	if got := clk.Now(); !got.Equal(start.Add(5 * time.Second)) {
		t.Fatalf("Now = %v", got)
	}
	// An NTP-style backward step moves the wall but never the monotonic clock.
	clk.StepWall(-time.Hour)
	if got := clk.Now(); !got.Equal(start.Add(5*time.Second - time.Hour)) {
		t.Fatalf("Now after StepWall = %v", got)
	}
	if got := clk.Since(m0); got != 5*time.Second {
		t.Fatalf("Since after StepWall = %v, want 5s", got)
	}
}

func TestManualTimerAndTicker(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	tm := clk.NewTimer(10 * time.Millisecond)
	clk.Advance(9 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	clk.Advance(time.Millisecond)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer did not fire at deadline")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired one-shot reported armed")
	}

	tk := clk.NewTicker(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		clk.Advance(10 * time.Millisecond)
		select {
		case <-tk.C():
		default:
			t.Fatalf("ticker missed fire %d", i)
		}
	}
	tk.Stop()
	clk.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestManualSleepUnblocksOnAdvance(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	done := make(chan error, 1)
	go func() { done <- clk.Sleep(context.Background(), 50*time.Millisecond) }()
	armed := func() bool { // the sleeper writes timers under clk.mu
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return len(clk.timers) > 0
	}
	for !armed() { // wait for the sleeper to arm
		time.Sleep(time.Millisecond)
	}
	clk.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("Sleep = %v", err)
	}
}

func TestWithTimeout(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	ctx, cancel := WithTimeout(context.Background(), clk, 20*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("context done before deadline")
	default:
	}
	clk.Advance(20 * time.Millisecond)
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("context not canceled after deadline")
	}
	if cause := context.Cause(ctx); cause != context.DeadlineExceeded {
		t.Fatalf("cause = %v, want DeadlineExceeded", cause)
	}
}

func TestOrDefaultsToOS(t *testing.T) {
	if Or(nil) != OS {
		t.Fatal("Or(nil) != OS")
	}
	clk := NewManual(time.Unix(0, 0))
	if Or(clk) != Clock(clk) {
		t.Fatal("Or(clk) != clk")
	}
}

func faultOver(t *testing.T, base *Manual, sched Schedule, proc string) *FaultClock {
	t.Helper()
	f, err := New(sched, proc, &Options{Base: base, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestFaultClockStep(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	base := NewManual(start)
	f := faultOver(t, base, Schedule{Rules: []Rule{
		{Kind: KindStep, AtOp: 3, Offset: schedfile.Duration(-90 * time.Second)},
	}}, "daemon")
	if got := f.Now(); !got.Equal(start) { // op 1
		t.Fatalf("op 1 Now = %v, want base", got)
	}
	if got := f.Now(); !got.Equal(start) { // op 2
		t.Fatalf("op 2 Now = %v, want base", got)
	}
	if got := f.Now(); !got.Equal(start.Add(-90 * time.Second)) { // op 3: step fires
		t.Fatalf("op 3 Now = %v, want -90s", got)
	}
	// Monotonic readings never saw the step.
	m := f.Mono()
	base.Advance(time.Second)
	if got := f.Since(m); got != time.Second {
		t.Fatalf("Since = %v, want 1s", got)
	}
	if got := f.Now(); !got.Equal(start.Add(time.Second - 90*time.Second)) {
		t.Fatalf("step did not persist: %v", got)
	}
}

func TestFaultClockProcIsolation(t *testing.T) {
	start := time.Unix(1000, 0)
	sched := Schedule{Rules: []Rule{
		{Kind: KindStep, Proc: "daemon", AtOp: 1, Offset: schedfile.Duration(90 * time.Second)},
		{Kind: KindStep, Proc: "w*", AtOp: 1, Offset: schedfile.Duration(-90 * time.Second)},
	}}
	d := faultOver(t, NewManual(start), sched, "daemon")
	w := faultOver(t, NewManual(start), sched, "w1")
	obs := faultOver(t, NewManual(start), sched, "observer")
	if got := d.Now(); !got.Equal(start.Add(90 * time.Second)) {
		t.Fatalf("daemon Now = %v", got)
	}
	if got := w.Now(); !got.Equal(start.Add(-90 * time.Second)) {
		t.Fatalf("worker Now = %v", got)
	}
	if got := obs.Now(); !got.Equal(start) {
		t.Fatalf("observer Now = %v", got)
	}
}

func TestFaultClockDrift(t *testing.T) {
	start := time.Unix(0, 0)
	base := NewManual(start)
	f := faultOver(t, base, Schedule{Rules: []Rule{
		{Kind: KindDrift, Rate: 0.5, FromOp: 1, ToOp: 3},
	}}, "daemon")
	f.Now() // op 1: drift window entered, zero elapsed yet
	base.Advance(10 * time.Second)
	// op 2: 10s monotonic inside the window -> +5s skew.
	if got := f.Now(); !got.Equal(start.Add(15 * time.Second)) {
		t.Fatalf("op 2 Now = %v, want +15s", got)
	}
	base.Advance(10 * time.Second)
	// op 3: first op past the window [1,3); the oscillator drifted over the
	// full 20s of monotonic time until the closure was observed, so 10s of
	// skew is banked and frozen.
	if got := f.Now(); !got.Equal(start.Add(30 * time.Second)) {
		t.Fatalf("op 3 Now = %v, want +30s (20s real + 10s banked)", got)
	}
	base.Advance(10 * time.Second)
	if got := f.Now(); !got.Equal(start.Add(40 * time.Second)) {
		t.Fatalf("op 4 Now = %v, want +40s (banked skew persists, no new drift)", got)
	}
}

func TestFaultClockFreeze(t *testing.T) {
	start := time.Unix(0, 0)
	base := NewManual(start)
	f := faultOver(t, base, Schedule{Rules: []Rule{
		{Kind: KindFreeze, FromOp: 2, ToOp: 4},
	}}, "daemon")
	f.Now() // op 1: outside window
	base.Advance(time.Second)
	frozen := f.Now() // op 2: freeze anchors here
	if !frozen.Equal(start.Add(time.Second)) {
		t.Fatalf("frozen anchor = %v", frozen)
	}
	base.Advance(time.Minute)
	if got := f.Now(); !got.Equal(frozen) { // op 3: still frozen
		t.Fatalf("op 3 Now = %v, want frozen %v", got, frozen)
	}
	if got := f.Since(f.Deadline(0)); got != 0 { // mono untouched mid-freeze
		t.Fatalf("Since(Deadline(0)) = %v", got)
	}
	if got := f.Now(); got.Equal(frozen) { // op 4: thawed
		t.Fatalf("op 4 still frozen at %v", got)
	}
}

func TestFaultClockJitterDeterminism(t *testing.T) {
	sched := Schedule{Seed: 42, Rules: []Rule{
		{Kind: KindJitter, Max: schedfile.Duration(time.Second), Prob: 0.5},
	}}
	run := func() []time.Duration {
		base := NewManual(time.Unix(0, 0))
		f := faultOver(t, base, sched, "daemon")
		var out []time.Duration
		for i := 0; i < 32; i++ {
			out = append(out, f.stretch(100*time.Millisecond))
		}
		return out
	}
	a, b := run(), run()
	var jittered, exact int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at arm %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] == 100*time.Millisecond {
			exact++
		} else if a[i] > 100*time.Millisecond && a[i] < 1100*time.Millisecond {
			jittered++
		} else {
			t.Fatalf("arm %d stretched out of range: %v", i, a[i])
		}
	}
	if jittered == 0 || exact == 0 {
		t.Fatalf("prob 0.5 over 32 arms gave jittered=%d exact=%d; seed draw degenerate", jittered, exact)
	}
	// A different proc must draw a different jitter pattern.
	base := NewManual(time.Unix(0, 0))
	g := faultOver(t, base, sched, "w1")
	diverged := false
	for i := 0; i < 32; i++ {
		if g.stretch(100*time.Millisecond) != a[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("proc w1 replayed daemon's jitter pattern; per-proc seed mixing broken")
	}
}

func TestFaultClockLate(t *testing.T) {
	base := NewManual(time.Unix(0, 0))
	f := faultOver(t, base, Schedule{Rules: []Rule{
		{Kind: KindLate, Max: schedfile.Duration(time.Second), FromOp: 2, ToOp: 3},
	}}, "daemon")
	if got := f.stretch(time.Millisecond); got != time.Millisecond { // op 1: outside
		t.Fatalf("op 1 stretch = %v", got)
	}
	if got := f.stretch(time.Millisecond); got != time.Millisecond+time.Second { // op 2: late
		t.Fatalf("op 2 stretch = %v, want +1s", got)
	}
	if got := f.stretch(time.Millisecond); got != time.Millisecond { // op 3: past window
		t.Fatalf("op 3 stretch = %v", got)
	}
}

func TestScheduleValidate(t *testing.T) {
	ok := func(r ...Rule) Schedule { return Schedule{Rules: r} }
	cases := []struct {
		name    string
		sched   Schedule
		wantErr string
	}{
		{"no rules", Schedule{}, "no rules"},
		{"unknown kind", ok(Rule{Kind: "warp"}), "unknown kind"},
		{"step without at_op", ok(Rule{Kind: KindStep, Offset: schedfile.Duration(time.Second)}), "at_op >= 1"},
		{"step without offset", ok(Rule{Kind: KindStep, AtOp: 1}), "non-zero offset"},
		{"step with window", ok(Rule{Kind: KindStep, AtOp: 1, Offset: schedfile.Duration(time.Second), ToOp: 5}), "only at_op/offset"},
		{"drift zero rate", ok(Rule{Kind: KindDrift}), "non-zero rate"},
		{"drift rate -1", ok(Rule{Kind: KindDrift, Rate: -1}), "exceed -1"},
		{"drift at_op", ok(Rule{Kind: KindDrift, Rate: 0.1, AtOp: 3}), "step-only"},
		{"negative window", ok(Rule{Kind: KindFreeze, FromOp: -1}), "negative op window"},
		{"inverted window", ok(Rule{Kind: KindFreeze, FromOp: 5, ToOp: 2}), "inverted op window"},
		{"jitter no max", ok(Rule{Kind: KindJitter}), "max > 0"},
		{"prob out of range", ok(Rule{Kind: KindJitter, Max: schedfile.Duration(time.Second), Prob: 1.5}), "prob must be in"},
		{"bad proc glob", ok(Rule{Kind: KindFreeze, Proc: "[x"}), "bad proc pattern"},
		{"overlapping freezes", ok(
			Rule{Kind: KindFreeze, FromOp: 1, ToOp: 10},
			Rule{Kind: KindFreeze, FromOp: 5, ToOp: 15},
		), "overlapping freeze"},
		{"overlapping freeze unbounded", ok(
			Rule{Kind: KindFreeze, FromOp: 5},
			Rule{Kind: KindFreeze, FromOp: 100, ToOp: 200},
		), "overlapping freeze"},
		{"disjoint freezes ok", ok(
			Rule{Kind: KindFreeze, FromOp: 1, ToOp: 5},
			Rule{Kind: KindFreeze, FromOp: 5, ToOp: 10},
		), ""},
		{"overlapping freezes on distinct procs ok", ok(
			Rule{Kind: KindFreeze, Proc: "daemon", FromOp: 1, ToOp: 10},
			Rule{Kind: KindFreeze, Proc: "w1", FromOp: 1, ToOp: 10},
		), ""},
		{"full compound ok", ok(
			Rule{Kind: KindStep, Proc: "daemon", AtOp: 10, Offset: schedfile.Duration(-90 * time.Second)},
			Rule{Kind: KindDrift, Proc: "w1", Rate: 0.01},
			Rule{Kind: KindJitter, Max: schedfile.Duration(50 * time.Millisecond), Prob: 0.2},
			Rule{Kind: KindLate, Max: schedfile.Duration(time.Second), FromOp: 3, ToOp: 20, Prob: 0.5},
		), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sched.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseScheduleStrictJSON(t *testing.T) {
	good := []byte(`{"seed": 7, "rules": [{"kind": "step", "at_op": 1, "offset": "90s"}]}`)
	s, err := parse(good)
	if err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	if s.Seed != 7 || len(s.Rules) != 1 || s.Rules[0].Offset.Std() != 90*time.Second {
		t.Fatalf("parsed schedule mangled: %+v", s)
	}
	bad := [][]byte{
		[]byte(`{"rules": [{"kind": "step", "at_op": 1, "offset": "90s", "bogus": 1}]}`),
		[]byte(`{"rules": []}`),
		[]byte(`{"rules": [{"kind": "drift", "rate": 0.1}]} trailing`),
		[]byte(`{"rules": [{"kind": "jitter", "max": "not a duration"}]}`),
	}
	for i, b := range bad {
		if _, err := parse(b); err == nil {
			t.Fatalf("bad schedule %d accepted", i)
		}
	}
}
