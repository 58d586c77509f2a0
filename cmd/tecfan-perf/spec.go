package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// benchSpec is BENCHMARK.json: the workloads, every metric with its unit
// and direction, and each end-to-end metric's regression bound (the share of
// the baseline median by which it may worsen).
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

func parseSpec(data []byte) (*benchSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// validate checks the file's own rules: names and units well formed and
// unique, every metric with a unit and a direction, every end-to-end metric
// with a bound, a set-up metric, and workload reasons of one line.
func (s *benchSpec) validate() error {
	if len(s.Command) == 0 || len(s.Paths) == 0 || s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("command, paths and run_seconds (1..60) are required")
	}
	if len(s.Workloads) < 2 || len(s.EndToEnd) < 1 || len(s.PerLayer) < 1 {
		return fmt.Errorf("need at least two workloads, one end-to-end and one per-layer metric")
	}
	names := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRe.MatchString(w.Name) || names["wl:"+w.Name] {
			return fmt.Errorf("workload name %q malformed or repeated", w.Name)
		}
		names["wl:"+w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	check := func(m specMetric, e2e bool) error {
		if !nameRe.MatchString(m.Name) || names[m.Name] {
			return fmt.Errorf("metric name %q malformed or repeated", m.Name)
		}
		names[m.Name] = true
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
		}
		switch {
		case e2e && m.Bound == nil:
			return fmt.Errorf("end-to-end metric %s has no bound", m.Name)
		case e2e && !(*m.Bound > 0 && *m.Bound <= 0.25):
			return fmt.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		case !e2e && m.Bound != nil:
			return fmt.Errorf("per-layer metric %s has a bound; only end-to-end metrics are gated", m.Name)
		}
		return nil
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		return fmt.Errorf("end-to-end metrics lack setup_s (unit s, lower is better)")
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	return nil
}

// matchesHarness checks the file against what this program emits: the same
// workloads, the same metrics with the same units and directions, and a
// layer-to-metric table that names only metrics and workloads that exist.
func (s *benchSpec) matchesHarness() error {
	var specWls []string
	for _, w := range s.Workloads {
		specWls = append(specWls, w.Name)
	}
	if strings.Join(specWls, ",") != strings.Join(workloadNames(), ",") {
		return fmt.Errorf("workloads %v, harness runs %v", specWls, workloadNames())
	}
	same := func(kind string, spec []specMetric, harness []metricDef) error {
		if len(spec) != len(harness) {
			return fmt.Errorf("%s: %d metrics, harness emits %d", kind, len(spec), len(harness))
		}
		for i, m := range harness {
			if spec[i].Name != m.Name || spec[i].Unit != m.Unit || spec[i].Better != m.Better {
				return fmt.Errorf("%s[%d]: %s/%s/%s, harness emits %s/%s/%s", kind, i,
					spec[i].Name, spec[i].Unit, spec[i].Better, m.Name, m.Unit, m.Better)
			}
		}
		return nil
	}
	if err := same("end_to_end", s.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", s.PerLayer, perLayer); err != nil {
		return err
	}
	wl := map[string]bool{}
	for _, w := range specWls {
		wl[w] = true
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	covered := map[string]bool{}
	for _, row := range layerRows {
		for _, l := range row.Layers {
			if !isPerLayer(l) {
				return fmt.Errorf("layer table names unknown layer metric %q", l)
			}
			covered[l] = true
		}
		for _, mv := range row.Moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || !wl[workload] {
				return fmt.Errorf("layer table row %v: %q is not metric@workload of this benchmark", row.Layers, mv)
			}
		}
		for _, w := range row.Flat {
			if !wl[w] {
				return fmt.Errorf("layer table row %v: unknown workload %q", row.Layers, w)
			}
		}
	}
	for _, m := range perLayer {
		if !covered[m.Name] {
			return fmt.Errorf("per-layer metric %s is in no layer table row", m.Name)
		}
	}
	return nil
}
