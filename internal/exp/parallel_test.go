package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// workersEnv is an Env at the scale of the fig56 benchmark workload, where
// every policy's controller runs, with up to n sweep points at once. The
// tests ask for 4 workers explicitly, more than a small runner has CPUs, so
// the parallel path runs there too.
func workersEnv(n int) *Env {
	e := NewEnv()
	e.Scale = 0.05
	e.Workers = n
	return e
}

// TestWorkersSameBytes: each parallel driver renders the same bytes at
// Workers 1 and 4. Fig. 7 takes its worker count from the Env here, as the
// report does.
func TestWorkersSameBytes(t *testing.T) {
	ctx := context.Background()
	drivers := []struct {
		name   string
		render func(*Env) ([]byte, error)
	}{
		{"table1", func(e *Env) ([]byte, error) {
			rows, err := e.Table1Opt(ctx, RowOptions[Table1Row]{})
			var buf bytes.Buffer
			WriteTable1(&buf, rows)
			return buf.Bytes(), err
		}},
		{"fig4", func(e *Env) ([]byte, error) {
			cases, err := e.Fig4Opt(ctx, RowOptions[Fig4Case]{})
			var buf bytes.Buffer
			WriteFig4(&buf, cases)
			fmt.Fprintf(&buf, "%v", cases) // the writer omits the series
			return buf.Bytes(), err
		}},
		{"fig56", func(e *Env) ([]byte, error) {
			r, err := e.Fig56Context(ctx)
			var buf bytes.Buffer
			WriteFig5(&buf, r)
			WriteFig6(&buf, r)
			return buf.Bytes(), err
		}},
		{"fig7", func(e *Env) ([]byte, error) {
			rows, err := fig7(ctx, e.Workers, 60)
			var buf bytes.Buffer
			WriteFig7(&buf, rows)
			fmt.Fprintf(&buf, "%v", rows) // the writer omits the raw results
			return buf.Bytes(), err
		}},
		{"ablations", func(e *Env) ([]byte, error) {
			knob, period, err := e.Ablations(ctx, "cholesky", []float64{2e-3, 8e-3})
			var buf bytes.Buffer
			WriteAblation(&buf, "knob", knob)
			WriteAblation(&buf, "period", period)
			return buf.Bytes(), err
		}},
		{"mapping", func(e *Env) ([]byte, error) {
			rows, err := e.MappingStudy(ctx, "cholesky", "Fan+TEC")
			var buf bytes.Buffer
			WriteMappingStudy(&buf, "cholesky", rows)
			fmt.Fprintf(&buf, "%v", rows) // the writer omits most metrics
			return buf.Bytes(), err
		}},
		{"chaos", func(e *Env) ([]byte, error) {
			var seen []ChaosRow
			r, err := e.ChaosContext(ctx, ChaosOptions{
				Bench: "cholesky", Threads: 16,
				Scenarios: []string{"sensor-dropout", "tec-fail-off"},
				Seed:      7,
				OnRow:     func(row ChaosRow) { seen = append(seen, row) },
			})
			if err != nil {
				return nil, err
			}
			if !slices.Equal(seen, r.Rows) {
				return nil, fmt.Errorf("OnRow saw %v, sweep returned %v", seen, r.Rows)
			}
			var buf bytes.Buffer
			WriteChaos(&buf, r)
			return buf.Bytes(), nil
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			serial, err := d.render(workersEnv(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := d.render(workersEnv(4))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("Workers 4 renders differently from Workers 1:\n%s\nvs\n%s", parallel, serial)
			}
		})
	}
}

// TestParallelRowsInPlanOrder: rows come back, and OnRow sees them, in the
// order Indices selects, with a replayed Done row in its place. An invalid
// index fails the sweep at its position: the rows before it return, none
// after, although later rows may already have run.
func TestParallelRowsInPlanOrder(t *testing.T) {
	ctx := context.Background()
	e := workersEnv(4)
	e.Scale = 0.005
	all, err := e.Table1Opt(ctx, RowOptions[Table1Row]{Indices: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	replayed := all[0]
	replayed.PeakT = -1 // a replayed row is emitted as given, not recomputed

	plan := []int{5, 0, 3, 7, 1}
	var seen []Table1Row
	rows, err := e.Table1Opt(ctx, RowOptions[Table1Row]{
		Indices: plan,
		Done:    []Table1Row{replayed},
		OnRow:   func(r Table1Row) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, seen) {
		t.Fatalf("OnRow saw %v, sweep returned %v", seen, rows)
	}
	tab := testBenchmarks(e)
	for k, i := range plan {
		if rows[k].Workload != tab[i].Name || rows[k].Threads != tab[i].Threads {
			t.Fatalf("row %d is %s-%d, plan wants %s-%d", k, rows[k].Workload, rows[k].Threads, tab[i].Name, tab[i].Threads)
		}
	}
	if rows[1] != replayed {
		t.Errorf("row 1 = %+v, want the replayed %+v", rows[1], replayed)
	}

	rows, err = e.Table1Opt(ctx, RowOptions[Table1Row]{Indices: []int{2, 4, 99, 6, 0}})
	if err == nil || !strings.Contains(err.Error(), "row index 99 out of range") {
		t.Fatalf("err = %v, want the out-of-range index", err)
	}
	if len(rows) != 2 || rows[0].Workload != tab[2].Name || rows[1].Workload != tab[4].Name {
		t.Fatalf("rows before the failure = %v, want plan rows 2 and 4", rows)
	}
}

// TestParallelPartialResults mirrors TestSweepPartialResults with 4 workers:
// an OnRow that cancels leaves exactly the rows emitted so far, and a
// pre-canceled context still returns a partial result.
func TestParallelPartialResults(t *testing.T) {
	t.Run("table1-row-resume", func(t *testing.T) {
		full, err := workersEnv(4).Table1Opt(context.Background(), RowOptions[Table1Row]{})
		if err != nil {
			t.Fatal(err)
		}

		// Interrupt after the first row.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		partial, err := workersEnv(4).Table1Opt(ctx, RowOptions[Table1Row]{
			OnRow: func(Table1Row) { calls++; cancel() },
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if len(partial) != 1 || calls != 1 {
			t.Fatalf("partial result has %d rows after %d OnRow calls, want exactly the one finished row", len(partial), calls)
		}

		// Resume from the partial rows: the completed sweep must equal the
		// uninterrupted one exactly.
		resumed, err := workersEnv(4).Table1Opt(context.Background(), RowOptions[Table1Row]{Done: partial})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resumed, full) {
			t.Fatalf("resumed sweep diverges:\nresumed %+v\nfull    %+v", resumed, full)
		}
	})

	t.Run("canceled-context-returns-partials", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e := workersEnv(4)
		if _, err := e.Table1Opt(ctx, RowOptions[Table1Row]{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("table1 under canceled ctx: err = %v, want context.Canceled", err)
		}
		if _, err := e.Fig4Opt(ctx, RowOptions[Fig4Case]{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("fig4 under canceled ctx: err = %v, want context.Canceled", err)
		}
		if out, err := e.Fig56Context(ctx); !errors.Is(err, context.Canceled) || out == nil {
			t.Fatalf("fig56 under canceled ctx: out=%v err=%v, want non-nil out and context.Canceled", out, err)
		}
	})
}

// TestParallelInOrder pins inOrder's contract with jobs that finish out of
// order: results are emitted in index order, the first error in index order
// wins over later errors and panics, and a panic reaches the caller with
// its value once the jobs before it are emitted.
func TestParallelInOrder(t *testing.T) {
	// Job 0 waits for job 3, so the jobs finish out of order and at least
	// two run at once.
	gate := make(chan struct{})
	job := func(ctx context.Context, i int) (int, error) {
		switch i {
		case 0:
			select {
			case <-gate:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		case 3:
			close(gate)
		}
		return i * i, nil
	}
	var got []int
	if err := inOrder(context.Background(), 4, 8, job, func(i, v int) { got = append(got, i, v) }); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, 1, 2, 4, 3, 9, 4, 16, 5, 25, 6, 36, 7, 49}; !slices.Equal(got, want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}

	errTwo, errFive := errors.New("two"), errors.New("five")
	got = nil
	err := inOrder(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
		switch i {
		case 2:
			return 0, errTwo
		case 5:
			return 0, errFive
		case 6:
			panic("six")
		}
		return i, nil
	}, func(_, v int) { got = append(got, v) })
	if !errors.Is(err, errTwo) || !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("err = %v after %v, want error two after [0 1]", err, got)
	}

	got = nil
	defer func() {
		if r := recover(); r != "six" || !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("recovered %v after %v, want panic six after [0 … 5]", r, got)
		}
	}()
	_ = inOrder(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
		if i == 6 {
			panic("six")
		}
		return i, nil
	}, func(_, v int) { got = append(got, v) })
	t.Fatal("a panicking job did not reach the caller")
}
