package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tecfan/internal/analysis"
	"tecfan/internal/analysis/loader"
)

func sampleFindings() []analysis.Finding {
	pos := token.Position{Filename: "internal/sim/sim.go", Line: 42, Column: 7}
	return []analysis.Finding{{
		Analyzer: "nondeterminism",
		Pos:      pos,
		File:     pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: "time.Now reads the wall clock",
	}}
}

func TestEmitText(t *testing.T) {
	var buf bytes.Buffer
	if code := emit(&buf, sampleFindings(), false); code != 1 {
		t.Fatalf("exit code %d with findings, want 1", code)
	}
	out := buf.String()
	if !strings.Contains(out, "internal/sim/sim.go:42:7") ||
		!strings.Contains(out, "(nondeterminism)") ||
		!strings.Contains(out, "tecfan-lint: 1 finding(s)") {
		t.Fatalf("text output incomplete:\n%s", out)
	}

	buf.Reset()
	if code := emit(&buf, nil, false); code != 0 {
		t.Fatalf("exit code %d with no findings, want 0", code)
	}
	if buf.Len() != 0 {
		t.Fatalf("clean run produced output: %q", buf.String())
	}
}

// JSON mode always exits 0 — consumers read the array and decide — and an
// empty result must be a decodable empty array, not "null".
func TestEmitJSON(t *testing.T) {
	var buf bytes.Buffer
	if code := emit(&buf, sampleFindings(), true); code != 0 {
		t.Fatalf("JSON exit code %d, want 0", code)
	}
	var got []analysis.Finding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not a findings array: %v\n%s", err, buf.String())
	}
	if len(got) != 1 || got[0].Analyzer != "nondeterminism" || got[0].Line != 42 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	buf.Reset()
	if code := emit(&buf, nil, true); code != 0 {
		t.Fatalf("empty JSON exit code %d, want 0", code)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Fatalf("empty findings encode as %q, want []", s)
	}
}

// TestVersionLine pins the exact shape cmd/go's toolID parser requires of a
// -V=full response: >= 3 fields, "version" second, and — because the third
// is "devel" — a final field carrying the buildID.
func TestVersionLine(t *testing.T) {
	var buf bytes.Buffer
	printVersion(&buf)
	line := strings.TrimSpace(buf.String())
	f := strings.Fields(line)
	if len(f) < 3 || f[0] != "tecfan-lint" || f[1] != "version" {
		t.Fatalf("malformed -V=full line: %q", line)
	}
	if f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Fatalf("devel version line missing buildID field: %q", line)
	}
}

// TestFlagDefs pins the -flags contract: a JSON array of {Name,Bool,Usage}
// objects that cmd/go uses to decide which flags it may forward.
func TestFlagDefs(t *testing.T) {
	var buf bytes.Buffer
	printFlagDefs(&buf)
	var defs []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(buf.Bytes(), &defs); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, buf.String())
	}
	found := false
	for _, d := range defs {
		if d.Name == "json" && d.Bool {
			found = true
		}
	}
	if !found {
		t.Fatalf("-flags does not declare the boolean json flag: %+v", defs)
	}
}

// TestPatternValidation pins the one-driver contract: the sole positional
// argument must be cmd/go's vet.cfg, and a package pattern (or nothing)
// is refused with a pointer to the go vet entry point.
func TestPatternValidation(t *testing.T) {
	if cfg, err := vetConfigArg([]string{"/tmp/b001/vet.cfg"}); err != nil || cfg != "/tmp/b001/vet.cfg" {
		t.Fatalf("vet.cfg rejected: %q, %v", cfg, err)
	}
	for _, args := range [][]string{nil, {"./..."}, {"./cmd/tecfan-lint"}, {"a.cfg", "b.cfg"}} {
		_, err := vetConfigArg(args)
		if err == nil {
			t.Errorf("args %q accepted", args)
		} else if !strings.Contains(err.Error(), "scripts/lint.sh") {
			t.Errorf("args %q: error %q does not point to scripts/lint.sh", args, err)
		}
	}
}

// finding is the part of a finding both drivers must agree on.
type finding struct {
	file     string
	line     int
	analyzer string
}

// vetLineRE matches one text-mode finding as go vet relays it:
// "path:line:col: message (analyzer)".
var vetLineRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: .* \(([a-z-]+)\)$`)

// TestVetDriverMatchesInProcess builds the tool, runs it under
// `go vet -vettool` over every analyzer fixture module, and requires
// exactly the (file, line, analyzer) findings the in-process loader path
// produces for the same module: the vet.cfg driver and the loader must
// type-check and analyze identically.
func TestVetDriverMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	mods, err := filepath.Glob("../../internal/analysis/testdata/*/go.mod")
	if err != nil || len(mods) == 0 {
		t.Fatalf("no fixture modules found (%v)", err)
	}

	tool := filepath.Join(t.TempDir(), "tecfan-lint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tecfan-lint: %v\n%s", err, out)
	}

	// A package pattern is refused before any work, exit 2.
	out, err := exec.Command(tool, "./...").CombinedOutput()
	if exitCode(err) != 2 || !strings.Contains(string(out), "scripts/lint.sh") {
		t.Errorf("tecfan-lint ./...: %v, %s; want exit 2 pointing to scripts/lint.sh", err, out)
	}

	for _, mod := range mods {
		fixture, err := filepath.Abs(filepath.Dir(mod))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			want := inProcessFindings(t, fixture)
			if len(want) == 0 {
				t.Fatal("fixture produced no in-process findings; the comparison would be vacuous")
			}
			vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
			vet.Dir = fixture
			vet.Env = append(os.Environ(), "GOWORK=off")
			out, err := vet.CombinedOutput()
			if exitCode(err) != 1 {
				t.Fatalf("go vet over a fixture with findings: %v, want exit 1\n%s", err, out)
			}
			got := map[finding]int{}
			for _, line := range strings.Split(string(out), "\n") {
				m := vetLineRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				file := m[1]
				if !filepath.IsAbs(file) {
					file = filepath.Join(fixture, file)
				}
				n, _ := strconv.Atoi(m[2])
				got[finding{filepath.Clean(file), n, m[3]}]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("go vet findings differ from the in-process run\nvet:        %v\nin-process: %v\ngo vet output:\n%s", got, want, out)
			}
		})
	}
}

// exitCode is the exit status an exec run ended with: 0 on success, -1
// when the process did not run to an exit.
func exitCode(err error) int {
	var ee *exec.ExitError
	if err == nil {
		return 0
	} else if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// inProcessFindings runs the full registry over a fixture module through
// the loader, as TestAnalyzersCleanOnTree does over the tree.
func inProcessFindings(t *testing.T, dir string) map[finding]int {
	t.Helper()
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	out := map[finding]int{}
	for _, pkg := range pkgs {
		fs, err := analysis.RunPackage(pkg, analysis.All(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			out[finding{filepath.Clean(f.File), f.Line, f.Analyzer}]++
		}
	}
	return out
}
