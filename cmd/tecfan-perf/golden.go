package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON holds the SHA-256 of every workload's canonical output, taken
// from a known-good tree, per scale mode. Floating-point output is only
// reproducible on the platform it was recorded on, so the check is skipped
// (and reported as skipped, not passed) anywhere else.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Platform string                       `json:"platform"`
	Full     map[string]map[string]string `json:"full"`
	Smoke    map[string]map[string]string `json:"smoke"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Full == nil {
		g.Full = map[string]map[string]string{}
	}
	if g.Smoke == nil {
		g.Smoke = map[string]map[string]string{}
	}
	return &g, nil
}

func (g *goldenFile) mode(mode string) map[string]map[string]string {
	if mode == "smoke" {
		return g.Smoke
	}
	return g.Full
}

// checkGolden compares every workload's output digests with the golden
// ones, both ways: a digest that differs, an output without a golden, and a
// golden output the run never produced all make the workload incorrect.
func (r *report) checkGolden(g *goldenFile, mode string) {
	if g.Platform != r.Platform {
		r.Golden = fmt.Sprintf("skipped (recorded on %q, running on %q)", g.Platform, r.Platform)
		return
	}
	r.Golden = "checked"
	for _, w := range r.Workloads {
		want := g.mode(mode)[w.Name]
		for _, key := range sortedKeys(w.Digests) {
			for _, d := range w.Digests[key] {
				switch exp, ok := want[key]; {
				case !ok:
					w.Correct = false
					w.Wrong++
					w.Errors = append(w.Errors, fmt.Sprintf("output %q has no golden digest", key))
				case d != exp:
					w.Correct = false
					w.Wrong++
					w.Errors = append(w.Errors, fmt.Sprintf("output %q digest %s, golden %s", key, d[:12], exp[:12]))
				}
			}
		}
		for _, key := range sortedKeys(want) {
			if _, ok := w.Digests[key]; !ok && w.Failed == 0 {
				w.Correct = false
				w.Wrong++
				w.Errors = append(w.Errors, fmt.Sprintf("golden output %q was never produced", key))
			}
		}
	}
}

// recordGolden stores this run's digests as the goldens of its mode. Every
// output must have been identical across the run's passes.
func recordGolden(path string, g *goldenFile, mode string, r *report) error {
	if g.Platform != r.Platform {
		g.Platform = r.Platform
		g.Full, g.Smoke = map[string]map[string]string{}, map[string]map[string]string{}
	}
	for _, w := range r.Workloads {
		if !w.Correct || w.Failed > 0 {
			return fmt.Errorf("not recording goldens: %s failed: %v", w.Name, w.Errors)
		}
		m := map[string]string{}
		for key, ds := range w.Digests {
			m[key] = ds[0]
		}
		g.mode(mode)[w.Name] = m
	}
	r.Golden = "recorded"
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
