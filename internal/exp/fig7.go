package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"tecfan/internal/server"
)

// Fig7Row is one §V-E contender, raw and normalized to OFTEC.
type Fig7Row struct {
	Policy string
	Raw    server.Result
	// Normalized to OFTEC (Fig. 7's presentation).
	Delay, Power, Energy, EDP float64
}

// Fig7Context runs the 4-core server comparison. seconds is the per-core
// trace length (600 = the paper's 10 minutes); cancellation aborts between
// policies or at the next simulated control period. The contenders run at
// once, up to GOMAXPROCS of them, over one shared Machine.
func Fig7Context(ctx context.Context, seconds int) ([]Fig7Row, error) {
	return fig7(ctx, runtime.GOMAXPROCS(0), seconds)
}

// fig7 is Fig7Context on at most workers goroutines; the rows come back in
// the same order, with the same bytes, at any count.
func fig7(ctx context.Context, workers, seconds int) ([]Fig7Row, error) {
	if err := checkTraceSeconds(seconds); err != nil {
		return nil, err
	}
	m := server.NewMachine()
	traces := server.PaperTraces()
	if seconds < len(traces[0]) {
		for c := range traces {
			traces[c] = traces[c][:seconds]
		}
	}
	policies := []server.Policy{
		&server.PIDFan{}, // the firmware baseline of the paper's introduction
		server.OFTEC{},
		server.TECfan{},
		server.NewOracle(),
		server.NewOracleP(),
	}
	// The contenders start longest first, so the last to start is a short
	// run. One 200 s run on a warm Machine (2-vCPU host, GOMAXPROCS=1):
	// Oracle 12.6–13.3 ms, Oracle-P 11.0–11.7, TECfan 10.2–11.0, OFTEC
	// 6.6–6.9, PID-fan 6.2–6.4. TECfan starts third, after the Oracles,
	// and builds the (banks, fan) bases they skipped.
	start := []int{3, 4, 2, 1, 0}
	rows := make([]Fig7Row, len(policies))
	err := inOrder(ctx, workers, len(start), func(ctx context.Context, k int) (*server.Result, error) {
		p := policies[start[k]]
		res, err := m.RunContext(ctx, traces, p, server.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", p.Name(), err)
		}
		return res, nil
	}, func(k int, res *server.Result) {
		i := start[k]
		rows[i] = Fig7Row{Policy: policies[i].Name(), Raw: *res}
	})
	if err != nil {
		return nil, err
	}
	base := rows[1].Raw // policies[1], OFTEC, is Fig. 7's normalization base
	for i := range rows {
		r := &rows[i]
		r.Delay = r.Raw.Delay / base.Delay
		r.Power = r.Raw.Metrics.AvgPower / base.Metrics.AvgPower
		r.Energy = r.Raw.Metrics.Energy / base.Metrics.Energy
		r.EDP = (r.Raw.Metrics.Energy * r.Raw.Delay) / (base.Metrics.Energy * base.Delay)
	}
	return rows, nil
}

// checkTraceSeconds refuses a Fig. 7 trace shorter than one second: an
// empty trace has no delay or energy to normalize by.
func checkTraceSeconds(seconds int) error {
	if seconds < 1 {
		return fmt.Errorf("fig7: trace seconds must be >= 1, got %d", seconds)
	}
	return nil
}

// WriteFig7 renders the normalized comparison.
func WriteFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Fig.7: normalized to OFTEC (4-core server, Wikipedia-style trace)")
	fmt.Fprintf(w, "%-9s %8s %8s %8s %8s | %10s %8s %9s\n",
		"policy", "delay", "power", "energy", "EDP", "avgP(W)", "peakT", "meanDVFS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %8.3f %8.3f %8.3f %8.3f | %10.2f %8.1f %9.2f\n",
			r.Policy, r.Delay, r.Power, r.Energy, r.EDP,
			r.Raw.Metrics.AvgPower, r.Raw.Metrics.PeakTemp, r.Raw.MeanDVFS)
	}
}
