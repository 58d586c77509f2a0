package exp

import (
	"context"
	"fmt"
	"io"

	"tecfan/internal/workload"
)

// Table1Row is one reproduced row of Table I alongside the paper's values.
type Table1Row struct {
	Workload  string
	Inputfile string
	FFInst    float64
	Threads   int
	Inst      float64

	TimeMS float64 // measured execution time
	Power  float64 // measured average chip power, W
	PeakT  float64 // measured peak temperature, °C

	PaperTimeMS float64
	PaperPower  float64
	PaperPeakT  float64
}

// Key identifies the row across resumed sweeps: its workload and threads.
func (r Table1Row) Key() [2]any { return [2]any{r.Workload, r.Threads} }

// Row is a row of a resumable sweep. Its Key identifies it in Done and in
// checkpoints; a Table I or Fig. 4 row's Key is its benchmark's name and
// thread count.
type Row interface{ Key() [2]any }

// RowOptions narrows and instruments a sweep over the Table I benchmarks
// for sharded execution: Indices selects rows (nil = all, in table order),
// Done replays rows already computed (matched by Key), and OnRow observes
// every emitted row, replayed ones included — the same resume seams
// ChaosOptions gives chaos sweeps.
type RowOptions[T Row] struct {
	Indices []int
	Done    []T
	OnRow   func(T)
}

// sweepRows runs one row per selected Table I benchmark on e.Workers
// goroutines, replaying Done rows instead of recomputing them. Rows are
// appended and OnRow is called on the calling goroutine in selection order.
// On error the rows emitted so far return alongside it.
func sweepRows[T Row](ctx context.Context, e *Env, opt RowOptions[T], run func(context.Context, *workload.Benchmark) (T, error)) ([]T, error) {
	all := workload.Table1(e.Leak)
	idx := opt.Indices
	if idx == nil {
		idx = make([]int, len(all))
		for i := range idx {
			idx[i] = i
		}
	}
	done := map[[2]any]T{}
	for _, row := range opt.Done {
		done[row.Key()] = row
	}
	var rows []T
	err := inOrder(ctx, e.Workers, len(idx), func(ctx context.Context, k int) (T, error) {
		i := idx[k]
		if i < 0 || i >= len(all) {
			var zero T
			return zero, fmt.Errorf("exp: row index %d out of range [0,%d)", i, len(all))
		}
		b := all[i]
		if row, ok := done[[2]any{b.Name, b.Threads}]; ok {
			return row, nil
		}
		return run(ctx, b)
	}, func(_ int, row T) {
		rows = append(rows, row)
		if opt.OnRow != nil {
			opt.OnRow(row)
		}
	})
	return rows, err
}

// Table1Opt reproduces the base scenario for the selected Table I rows
// (all eight by default). On error — a failed row or cancellation — the
// rows completed so far return alongside it, so a caller can still render
// or persist the partial table.
func (e *Env) Table1Opt(ctx context.Context, opt RowOptions[Table1Row]) ([]Table1Row, error) {
	return sweepRows(ctx, e, opt, func(ctx context.Context, b *workload.Benchmark) (Table1Row, error) {
		res, err := e.BaseScenarioContext(ctx, e.Scaled(b))
		if err != nil {
			return Table1Row{}, fmt.Errorf("table1 %s-%d: %w", b.Name, b.Threads, err)
		}
		return Table1Row{
			Workload:  b.Name,
			Inputfile: b.Input,
			FFInst:    b.FFInst,
			Threads:   b.Threads,
			Inst:      b.TotalInst,
			// Report at paper scale: time scales inversely with Scale.
			// Table I lists processor power (Wattch/SESC output); fan power
			// is accounted separately in Fig. 4(c), so subtract it here.
			TimeMS:      res.Metrics.Time * 1000 / e.Scale,
			Power:       res.Metrics.AvgPower - e.Fan.Power(0),
			PeakT:       res.Metrics.PeakTemp,
			PaperTimeMS: b.TargetTimeMS,
			PaperPower:  b.TargetPower,
			PaperPeakT:  b.TargetPeak,
		}, nil
	})
}

// WriteTable1 renders the rows in the paper's layout plus the paper-reported
// columns for side-by-side comparison.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-9s %-9s %7s %8s | %9s %9s %8s | %9s %9s %8s\n",
		"Workload", "Input", "FFInst", "Threads", "Time(ms)", "Power(W)", "T(C)", "~Time", "~Power", "~T")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-9s %6.0fM %8d | %9.2f %9.1f %8.2f | %9.2f %9.1f %8.2f\n",
			r.Workload, r.Inputfile, r.FFInst/1e6, r.Threads,
			r.TimeMS, r.Power, r.PeakT,
			r.PaperTimeMS, r.PaperPower, r.PaperPeakT)
	}
}
