package tecfan_test

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tecfan/internal/client"
	"tecfan/internal/core"
	"tecfan/internal/daemon"
	"tecfan/internal/exp"
	"tecfan/internal/pool"
	"tecfan/internal/sim"
	"tecfan/internal/worker"
)

// TestOptionSurface pins every settable field of the simulation and serving
// configuration types. Each field is an option that tests and benchmarks
// must cover, so adding or removing one is a reviewed change to
// testdata/option_surface.txt, never a silent one.
func TestOptionSurface(t *testing.T) {
	var lines []string
	for _, v := range []any{
		sim.Config{}, core.Controller{}, exp.Env{},
		daemon.Config{}, worker.Config{}, pool.Config{},
		client.Config{}, client.BreakerConfig{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				lines = append(lines, typ.String()+"."+f.Name)
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/option_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("option surface changed; if intended, replace testdata/option_surface.txt with:\n%s", got)
	}
}
