// Command tecfan-lint is the repo's static-invariant multichecker: it runs
// the nine DESIGN.md §13/§18 analyzers (nondeterminism, ctxloop,
// atomicwrite, lockedio, floatcmp, monotime, allocfree, scratchalias,
// hotcall) as a `go vet` tool and fails on any unjustified finding.
//
//	go vet -vettool=$(which tecfan-lint) ./...        # what scripts/lint.sh runs
//	go vet -vettool=$(which tecfan-lint) -json ./...  # machine-readable
//	tecfan-lint -analyzers                            # print the catalog
//
// It speaks cmd/go's (unpublished) vet driver protocol: cmd/go invokes the
// tool once per package with a vet.cfg file naming the sources and every
// dependency's export data, plus -V=full and -flags probes for build
// caching and flag discovery. The in-process tests (the analysistest
// fixtures and TestAnalyzersCleanOnTree) load packages through
// internal/analysis/loader and type-check them through the same
// analysis.TypeCheck, with identical //lint:tecfan-ignore handling, so
// scripts/lint.sh, CI and `go test` can never disagree about what is
// clean.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tecfan/internal/analysis"
)

func main() {
	// cmd/go probes precede normal flag parsing: it invokes `-V=full` to
	// derive a cache key from the tool's content hash, and `-flags` to
	// discover which flags it may forward.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion(os.Stdout)
			return
		case "-flags", "--flags":
			printFlagDefs(os.Stdout)
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (exit 0; for tooling)")
	listAnalyzers := flag.Bool("analyzers", false, "print the analyzer catalog and exit")
	flag.Parse()

	if *listAnalyzers {
		for _, a := range analysis.All() {
			fmt.Printf("%s\n\t%s\n", a.Name, a.Doc)
		}
		return
	}
	cfg, err := vetConfigArg(flag.Args())
	if err != nil {
		fatal(err)
	}
	os.Exit(vetMode(cfg, *jsonOut))
}

// vetConfigArg returns the vet.cfg path cmd/go passes as the sole
// positional argument, and rejects anything else: package patterns are
// go vet's to expand.
func vetConfigArg(args []string) (string, error) {
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return args[0], nil
	}
	return "", errors.New("runs only as a go vet tool: go vet -vettool=$(which tecfan-lint) ./... (scripts/lint.sh builds and runs it)")
}

// emit writes findings and returns the process exit code: 1 if anything
// must block the build, 0 otherwise. JSON mode always exits 0 so tooling
// can consume the stream and decide for itself.
func emit(w io.Writer, findings []analysis.Finding, asJSON bool) int {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(w, "tecfan-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printVersion emits the line cmd/go's toolID parser expects: field 2 is
// "devel" and the final field carries a content hash of this executable,
// so editing an analyzer invalidates cmd/go's vet cache.
func printVersion(w io.Writer) {
	h := sha256.New()
	exe, err := os.Executable()
	if err == nil {
		f, err2 := os.Open(exe)
		if err2 == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Fprintf(w, "tecfan-lint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}

// printFlagDefs tells cmd/go which tool flags `go vet -vettool` may accept
// on its own command line and forward.
func printFlagDefs(w io.Writer) {
	type flagDef struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	defs := []flagDef{
		{Name: "json", Bool: true, Usage: "emit findings as JSON"},
	}
	out, err := json.Marshal(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tecfan-lint: %v\n", err)
	os.Exit(2)
}
