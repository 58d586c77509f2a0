package exp

import (
	"context"
	"fmt"
	"io"

	"tecfan/internal/perf"
	"tecfan/internal/workload"
)

// Thread-mapping study: the related work the paper positions against
// includes cooling-aware scheduling (Ayoub & Rosing [4]). Our 4-thread
// Table I rows pin threads to the centre tiles — the worst case the paper's
// local-hot-spot narrative needs. This experiment quantifies how much
// thread placement alone moves the thermal picture, and how much of the
// gap TECfan recovers regardless of placement.

// Mapping is a named 4-thread core assignment on the 4×4 grid.
type Mapping struct {
	Name  string
	Cores []int
}

// StandardMappings are the placements compared: the paper-style centre
// block, a corner block, a spread-out checker, and an edge row.
func StandardMappings() []Mapping {
	return []Mapping{
		{Name: "center", Cores: []int{5, 6, 9, 10}},
		{Name: "corner", Cores: []int{0, 1, 4, 5}},
		{Name: "spread", Cores: []int{0, 3, 12, 15}},
		{Name: "row", Cores: []int{0, 1, 2, 3}},
	}
}

// MappingRow is one (mapping, policy) outcome.
type MappingRow struct {
	Mapping  string
	Policy   string
	BasePeak float64 // base-scenario peak with this placement
	FanLevel int
	Metrics  perf.Metrics
	Norm     perf.NormalizedMetrics
}

// MappingStudy runs a 4-thread benchmark under every standard mapping,
// reporting the base-scenario peak per placement and the chosen policy's
// outcome (normalized to that placement's own base scenario). The
// placements run on the worker set; rows come back in StandardMappings
// order.
func (e *Env) MappingStudy(ctx context.Context, benchName, policyName string) ([]MappingRow, error) {
	b, err := workload.ByName(benchName, 4, e.Leak)
	if err != nil {
		return nil, err
	}
	mappings := StandardMappings()
	rows := make([]MappingRow, 0, len(mappings))
	err = inOrder(ctx, e.Workers, len(mappings), func(ctx context.Context, i int) (MappingRow, error) {
		m := mappings[i]
		mb := *b
		mb.ActiveCores = append([]int(nil), m.Cores...)
		sb := e.Scaled(&mb)
		base, err := e.BaseScenarioContext(ctx, sb)
		if err != nil {
			return MappingRow{}, fmt.Errorf("mapping %s base: %w", m.Name, err)
		}
		run, err := e.RunCell(ctx, sb, policyName, base)
		if err != nil {
			return MappingRow{}, fmt.Errorf("mapping %s policy: %w", m.Name, err)
		}
		return MappingRow{
			Mapping:  m.Name,
			Policy:   policyName,
			BasePeak: run.Threshold,
			FanLevel: run.FanLevel,
			Metrics:  run.Metrics,
			Norm:     run.Norm,
		}, nil
	}, func(_ int, row MappingRow) { rows = append(rows, row) })
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteMappingStudy renders the placement comparison.
func WriteMappingStudy(w io.Writer, bench string, rows []MappingRow) {
	fmt.Fprintf(w, "thread-mapping study (%s/4): placement vs thermals\n", bench)
	fmt.Fprintf(w, "%-8s %10s %5s %8s %8s %8s\n",
		"mapping", "base peak", "fan", "delay", "energy", "peak")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %9.2fC %5d %8.3f %8.3f %7.2fC\n",
			r.Mapping, r.BasePeak, r.FanLevel+1, r.Norm.Delay, r.Norm.Energy, r.Metrics.PeakTemp)
	}
}
