package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testEnv returns a reduced-scale environment: every mechanism runs with
// instruction budgets around a third of the paper's — large enough that the
// reactive policies' fixed-duration crossing transients do not dominate the
// shortest benchmark (lu, 20 ms at full scale) — keeping the suite fast.
func testEnv() *Env {
	e := NewEnv()
	e.Scale = 0.35
	e.MaxWarmStarts = 3
	return e
}

func TestTable1Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I reproduction in -short mode")
	}
	e := testEnv()
	rows, err := e.Table1Opt(context.Background(), RowOptions[Table1Row]{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		// Execution time within 5 % (it is calibrated, plus jitter).
		if math.Abs(r.TimeMS-r.PaperTimeMS)/r.PaperTimeMS > 0.05 {
			t.Errorf("%s-%d: time %.2f ms vs paper %.2f", r.Workload, r.Threads, r.TimeMS, r.PaperTimeMS)
		}
		// Chip power within 3 W.
		if math.Abs(r.Power-r.PaperPower) > 3 {
			t.Errorf("%s-%d: power %.1f W vs paper %.1f", r.Workload, r.Threads, r.Power, r.PaperPower)
		}
		// Peak temperature within 4.5 °C (lu-4 is the worst row).
		if math.Abs(r.PeakT-r.PaperPeakT) > 4.5 {
			t.Errorf("%s-%d: peak %.2f °C vs paper %.2f", r.Workload, r.Threads, r.PeakT, r.PaperPeakT)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "cholesky") {
		t.Fatal("rendered table missing rows")
	}
	checkDigest(t, "table1", buf.Bytes())
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig 4 reproduction in -short mode")
	}
	e := testEnv()
	cases, err := e.Fig4Opt(context.Background(), RowOptions[Fig4Case]{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 8 {
		t.Fatalf("%d cases, want 8", len(cases))
	}
	hotViolL2, hotTECRecovered := 0, 0
	for _, c := range cases {
		if len(c.FanOnlyL1) == 0 || len(c.FanOnlyL2) == 0 || len(c.FanTECL2) == 0 {
			t.Fatalf("%s: empty series", c.Bench)
		}
		// Fig. 4(a): level 1 keeps the peak at/below threshold; level 2
		// introduces violations on the hot benchmarks.
		if c.ViolL1 > 0.02 {
			t.Errorf("%s-%d: Fan-only@L1 violates %.1f%%", c.Bench, c.Threads, 100*c.ViolL1)
		}
		if c.ViolL2 > 0.5 {
			hotViolL2++
			// Fig. 4(b): TECs recover most of the gap.
			if c.ViolTEC < c.ViolL2/2 {
				hotTECRecovered++
			}
		}
		// Fig. 4(c): cooling power at L2+TEC is far below L1.
		if c.FanPowerL2+c.TECPowerAvg >= c.FanPowerL1 {
			t.Errorf("%s-%d: TEC+L2 cooling power %.1f not below L1 %.1f",
				c.Bench, c.Threads, c.FanPowerL2+c.TECPowerAvg, c.FanPowerL1)
		}
		if c.FanPowerL1 != 14.4 || c.FanPowerL2 != 3.8 {
			t.Errorf("fan powers %.1f/%.1f, want paper's 14.4/3.8", c.FanPowerL1, c.FanPowerL2)
		}
	}
	if hotViolL2 == 0 {
		t.Error("no benchmark violates at fan level 2 — Fig. 4(a) story missing")
	}
	if hotTECRecovered == 0 {
		t.Error("TECs never recover the level-2 gap — Fig. 4(b) story missing")
	}
	var buf bytes.Buffer
	WriteFig4(&buf, cases)
	if !strings.Contains(buf.String(), "cooling power") {
		t.Fatal("rendered figure incomplete")
	}
	// The writer omits the time series, so the digest covers them too.
	fmt.Fprintf(&buf, "%v", cases)
	checkDigest(t, "fig4", buf.Bytes())
}

func TestFig56Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig 5/6 reproduction in -short mode")
	}
	e := testEnv()
	r, err := e.Fig56Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 4*len(PolicyOrder) {
		t.Fatalf("%d runs, want %d", len(r.Runs), 4*len(PolicyOrder))
	}

	// Fig. 5(b): TECfan's violation ratio stays under 0.5 % everywhere.
	for _, bench := range []string{"cholesky", "fmm", "volrend", "lu"} {
		c := r.Cell("TECfan", bench)
		if c == nil {
			t.Fatalf("missing TECfan/%s", bench)
		}
		if c.Metrics.ViolationRatio > 0.005 {
			t.Errorf("TECfan violates %.2f%% on %s (paper: <0.5%%)", 100*c.Metrics.ViolationRatio, bench)
		}
	}

	tf := r.MeanNorm("TECfan")
	fanDVFS := r.MeanNorm("Fan+DVFS")
	dvfsTEC := r.MeanNorm("DVFS+TEC")
	fanTEC := r.MeanNorm("Fan+TEC")
	fanOnly := r.MeanNorm("Fan-only")

	// Fig. 6(a): TECfan has (near-)zero delay; the DVFS-reactive baselines
	// stretch execution massively (paper: +60 %).
	if tf.Delay > 1.10 {
		t.Errorf("TECfan delay %.3f, paper reports ~1.04", tf.Delay)
	}
	if fanDVFS.Delay < 1.25 {
		t.Errorf("Fan+DVFS delay %.3f, paper reports ~1.6", fanDVFS.Delay)
	}

	// Fig. 6(c): the DVFS policies save the most raw energy; Fan+TEC saves
	// ~5–10 %; TECfan saves energy with essentially no delay.
	if fanDVFS.Energy > 0.9 {
		t.Errorf("Fan+DVFS energy %.3f, should save ≳10%%", fanDVFS.Energy)
	}
	if dvfsTEC.Energy > 0.9 {
		t.Errorf("DVFS+TEC energy %.3f, should save ≳10%%", dvfsTEC.Energy)
	}
	if fanTEC.Energy > 1.02 || fanTEC.Energy < 0.85 {
		t.Errorf("Fan+TEC energy %.3f, paper band is ~0.91", fanTEC.Energy)
	}
	if tf.Energy > 0.97 {
		t.Errorf("TECfan energy %.3f, must save energy vs base", tf.Energy)
	}

	// Fig. 6(d): TECfan has the best EDP; the DVFS-heavy baselines lose
	// their energy advantage under EDP (paper: Fan+DVFS EDP worse than
	// base).
	for _, other := range []struct {
		name string
		n    float64
	}{
		{"Fan-only", fanOnly.EDP},
		{"Fan+TEC", fanTEC.EDP},
		{"Fan+DVFS", fanDVFS.EDP},
		{"DVFS+TEC", dvfsTEC.EDP},
	} {
		if tf.EDP > other.n+1e-9 {
			t.Errorf("TECfan EDP %.3f worse than %s %.3f", tf.EDP, other.name, other.n)
		}
	}
	if fanDVFS.EDP < 1.0 {
		t.Errorf("Fan+DVFS EDP %.3f, paper reports worse than base", fanDVFS.EDP)
	}

	var buf bytes.Buffer
	WriteFig5(&buf, r)
	WriteFig6(&buf, r)
	if !strings.Contains(buf.String(), "EDP") {
		t.Fatal("rendered figures incomplete")
	}
	checkDigest(t, "fig56", buf.Bytes())
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig 7 reproduction in -short mode")
	}
	rows, err := Fig7Context(context.Background(), 120) // 2-minute traces for the test
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	oftec, tf := byName["OFTEC"], byName["TECfan"]
	oracle, oraclep := byName["Oracle"], byName["Oracle-P"]
	if oftec.Energy != 1 || oftec.Delay != 1 {
		t.Fatalf("OFTEC not the normalization base: %+v", oftec)
	}
	// Paper: TECfan −29 % energy vs OFTEC without degrading performance.
	if tf.Delay != 1 {
		t.Errorf("TECfan delay %.3f, paper reports none", tf.Delay)
	}
	if tf.Energy > 0.80 || tf.Energy < 0.40 {
		t.Errorf("TECfan energy %.3f of OFTEC; paper band is ~0.71", tf.Energy)
	}
	// Oracle: even lower energy, small delay.
	if oracle.Energy > tf.Energy {
		t.Errorf("Oracle energy %.3f above TECfan %.3f", oracle.Energy, tf.Energy)
	}
	if oracle.Delay <= 1 {
		t.Error("Oracle should trade delay for energy")
	}
	// Oracle-P ≈ TECfan.
	if oraclep.Delay != 1 {
		t.Errorf("Oracle-P delay %.3f, must match TECfan's zero degradation", oraclep.Delay)
	}
	if math.Abs(oraclep.Energy-tf.Energy) > 0.08 {
		t.Errorf("Oracle-P energy %.3f vs TECfan %.3f: paper says approximately equal",
			oraclep.Energy, tf.Energy)
	}
	var buf bytes.Buffer
	WriteFig7(&buf, rows)
	if !strings.Contains(buf.String(), "OFTEC") {
		t.Fatal("rendered figure incomplete")
	}
	checkDigest(t, "fig7", buf.Bytes())
}

func TestHardwareCostReport(t *testing.T) {
	e := NewEnv()
	r, err := e.HardwareCost()
	if err != nil {
		t.Fatal(err)
	}
	if r.Paper.Multipliers != 54 {
		t.Fatalf("multipliers = %d, want the paper's 54", r.Paper.Multipliers)
	}
	if r.Paper.AreaOverhead >= 0.017 || r.Ours.AreaOverhead >= 0.017 {
		t.Fatalf("area overhead exceeds the paper's 1.7%% bound: %.4f / %.4f",
			r.Paper.AreaOverhead, r.Ours.AreaOverhead)
	}
	if r.MACsPerEval <= 0 || r.MACsPerEval > 18*18 {
		t.Fatalf("MACs per eval %d implausible", r.MACsPerEval)
	}
	if r.KL >= 17 {
		t.Fatalf("per-core G not banded: kl=%d", r.KL)
	}
	var buf bytes.Buffer
	WriteHardwareCost(&buf, r)
	if !strings.Contains(buf.String(), "systolic") {
		t.Fatal("rendered report incomplete")
	}
}

func TestSelectFanLevelUnknownPolicy(t *testing.T) {
	e := testEnv()
	bs := testBenchmarks(e)
	_, _, err := e.SelectFanLevelContext(context.Background(), bs[0], "NoSuch", 90)
	if err == nil || !strings.HasPrefix(err.Error(), "exp: unknown policy") ||
		!strings.Contains(err.Error(), "TECfan-FT") {
		t.Fatalf("unknown policy: got %v, want the exp error listing the valid policies", err)
	}
}

func TestScaledBenchmarkTiming(t *testing.T) {
	e := testEnv()
	bs := testBenchmarks(e)
	if bs[0].TotalInst >= 1e9 {
		t.Fatal("scaling did not shrink the benchmark")
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	e := testEnv()
	var buf bytes.Buffer
	if err := e.WriteReportContext(context.Background(), &buf, ReportOptions{TraceSeconds: 60, SkipSlow: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# TECfan reproduction report", "## Table I", "## Fig. 4", "## Fig. 7", "hardware cost", "cholesky"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The report at test scale must not flag Table I deviations beyond the
	// calibrated bands.
	if strings.Count(out, "**deviates**") > 1 {
		t.Fatalf("report flags %d Table I deviations", strings.Count(out, "**deviates**"))
	}
}
