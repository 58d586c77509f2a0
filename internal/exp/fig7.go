package exp

import (
	"context"
	"fmt"
	"io"

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
// policies or at the next simulated control period.
func Fig7Context(ctx context.Context, seconds int) ([]Fig7Row, error) {
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
	var rows []Fig7Row
	var base *server.Result
	for _, p := range policies {
		res, err := m.RunContext(ctx, traces, p, server.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", p.Name(), err)
		}
		if p.Name() == "OFTEC" {
			base = res
		}
		rows = append(rows, Fig7Row{Policy: p.Name(), Raw: *res})
	}
	for i := range rows {
		r := &rows[i]
		r.Delay = r.Raw.Delay / base.Delay
		r.Power = r.Raw.Metrics.AvgPower / base.Metrics.AvgPower
		r.Energy = r.Raw.Metrics.Energy / base.Metrics.Energy
		r.EDP = (r.Raw.Metrics.Energy * r.Raw.Delay) / (base.Metrics.Energy * base.Delay)
	}
	return rows, nil
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
