package analysis_test

import (
	"strings"
	"testing"

	"tecfan/internal/analysis"
	"tecfan/internal/analysis/analysistest"
)

// Each analyzer gets a golden fixture module under testdata/: every line
// carrying a // want comment must produce exactly that finding, and every
// other line must produce none.

func TestNondeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/nondeterminism", analysis.Nondeterminism)
}

func TestCtxloop(t *testing.T) {
	analysistest.Run(t, "testdata/ctxloop", analysis.Ctxloop)
}

func TestAtomicwrite(t *testing.T) {
	analysistest.Run(t, "testdata/atomicwrite", analysis.Atomicwrite)
}

func TestLockedio(t *testing.T) {
	analysistest.Run(t, "testdata/lockedio", analysis.Lockedio)
}

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, "testdata/floatcmp", analysis.Floatcmp)
}

func TestMonotime(t *testing.T) {
	analysistest.Run(t, "testdata/monotime", analysis.Monotime)
}

func TestAllocfree(t *testing.T) {
	analysistest.Run(t, "testdata/allocfree", analysis.Allocfree)
}

func TestScratchalias(t *testing.T) {
	analysistest.Run(t, "testdata/scratchalias", analysis.Scratchalias)
}

func TestHotcall(t *testing.T) {
	analysistest.Run(t, "testdata/hotcall", analysis.Hotcall)
}

// TestIgnoreDirective covers the escape hatch's own contract: trailing and
// comment-above suppression, single-line reach, mandatory justification,
// and unknown-analyzer rejection.
func TestIgnoreDirective(t *testing.T) {
	analysistest.Run(t, "testdata/ignore", analysis.Nondeterminism)
}

func TestRegistry(t *testing.T) {
	all := analysis.All()
	if len(all) < 5 {
		t.Fatalf("registry has %d analyzers, want >= 5", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if got := analysis.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
		if a.Name != strings.ToLower(a.Name) {
			t.Errorf("analyzer name %q not lower-case", a.Name)
		}
	}
	if seen[analysis.DirectiveAnalyzerName] {
		t.Errorf("registry must not claim the reserved name %q", analysis.DirectiveAnalyzerName)
	}
	if analysis.ByName("no-such-analyzer") != nil {
		t.Error("ByName invented an analyzer")
	}
}
