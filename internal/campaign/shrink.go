package campaign

import (
	"context"
	"fmt"

	"tecfan/internal/netfault"
	"tecfan/internal/schedfile"
)

// Predicate runs one episode of a candidate spec and reports whether it still
// fails — i.e. reproduces at least one oracle violation. The minimizer never
// passes it an invalid spec (candidates that fail Validate count as
// non-failing without a run). The predicate must be deterministic for a given
// spec: minimized repros only mean something if the failing draw sequence is
// pinned, so callers resolve seeds (Spec.ForEpisode) on the failing episode
// BEFORE minimizing and the shrinker never touches a seed field.
type Predicate func(ctx context.Context, s Spec) (bool, error)

// Stats counts the minimizer's work, for drill logs and the shrinker tests.
type Stats struct {
	// AtomsBefore / AtomsAfter are the droppable-element counts going in and
	// coming out of delta debugging.
	AtomsBefore int `json:"atoms_before"`
	AtomsAfter  int `json:"atoms_after"`
	// Runs is how many times the predicate actually ran (cache misses).
	Runs int `json:"runs"`
	// CacheHits is how many candidate evaluations the canonical-JSON cache
	// absorbed.
	CacheHits int `json:"cache_hits"`
	// Halvings is how many window/timeline halving steps stuck.
	Halvings int `json:"halvings"`
}

// Minimize delta-debugs a failing composite schedule down to a minimal
// still-failing repro:
//
//  1. ddmin over the spec's droppable atoms (extra jobs, the pool, the net
//     base fault, each net window, the disk crash point, each disk rule,
//     each num rule, each proc action) until the kept set is 1-minimal —
//     dropping any single remaining atom makes the failure vanish.
//  2. Per-window halving: each bounded num-rule step window and each net
//     window is repeatedly narrowed to whichever half still fails.
//  3. Timeline halving: all time offsets (net windows, period, proc At)
//     are scaled down together while the failure survives, so the repro is
//     also fast to replay.
//
// The input spec must itself fail; Minimize errors out otherwise rather than
// "minimizing" a green schedule to nothing.
func Minimize(ctx context.Context, spec Spec, failing Predicate) (Spec, Stats, error) {
	if err := spec.Validate(); err != nil {
		return spec, Stats{}, fmt.Errorf("campaign: minimize: input spec invalid: %w", err)
	}
	m := &minimizer{pred: failing, cache: map[string]bool{}}
	ok, err := m.fails(ctx, spec)
	if err != nil {
		return spec, m.stats, err
	}
	if !ok {
		return spec, m.stats, fmt.Errorf("campaign: minimize: the input spec does not fail the predicate")
	}

	atoms := atomsOf(spec)
	m.stats.AtomsBefore = len(atoms)
	kept, err := m.ddmin(ctx, spec, atoms)
	if err != nil {
		return spec, m.stats, err
	}
	m.stats.AtomsAfter = len(kept)
	best := buildCandidate(spec, keepSet(kept))

	best, err = m.shrinkWindows(ctx, best)
	if err != nil {
		return best, m.stats, err
	}
	best, err = m.halveTimeline(ctx, best)
	return best, m.stats, err
}

// atomKind enumerates the droppable element classes of a Spec.
type atomKind int

const (
	atomJob atomKind = iota
	atomPool
	atomNetBase
	atomNetWindow
	atomDiskCrash
	atomDiskRule
	atomNumRule
	atomClockRule
	atomProc
)

// atom names one droppable element by its index in the ORIGINAL spec;
// buildCandidate always rebuilds from that original, so indices stay stable
// across the whole ddmin run.
type atom struct {
	kind atomKind
	idx  int
}

// atomsOf enumerates a spec's droppable elements. Job 0 is never an atom —
// a spec needs at least one job to validate, and an episode with no jobs
// cannot witness any oracle.
func atomsOf(s Spec) []atom {
	var out []atom
	for i := 1; i < len(s.Jobs); i++ {
		out = append(out, atom{atomJob, i})
	}
	if s.Pool != nil {
		out = append(out, atom{atomPool, 0})
	}
	if s.Net != nil {
		if s.Net.Base != (netfault.Fault{}) {
			out = append(out, atom{atomNetBase, 0})
		}
		for i := range s.Net.Windows {
			out = append(out, atom{atomNetWindow, i})
		}
	}
	if s.Disk != nil {
		if s.Disk.CrashAtOp > 0 {
			out = append(out, atom{atomDiskCrash, 0})
		}
		for i := range s.Disk.Rules {
			out = append(out, atom{atomDiskRule, i})
		}
	}
	if s.Num != nil {
		for i := range s.Num.Rules {
			out = append(out, atom{atomNumRule, i})
		}
	}
	if s.Clock != nil {
		for i := range s.Clock.Rules {
			out = append(out, atom{atomClockRule, i})
		}
	}
	for i := range s.Procs {
		out = append(out, atom{atomProc, i})
	}
	return out
}

// keepSet is the lookup buildCandidate filters by. Job 0 is always in it:
// it is never an atom, so it can never be dropped.
func keepSet(atoms []atom) map[atom]bool {
	m := make(map[atom]bool, len(atoms)+1)
	m[atom{atomJob, 0}] = true
	for _, a := range atoms {
		m[a] = true
	}
	return m
}

// buildCandidate rebuilds the original spec with only the kept atoms, folding
// away injector blocks that end up empty (an empty lattice axis should read
// as absent, both for the predicate and in the committed repro file).
func buildCandidate(orig Spec, kept map[atom]bool) Spec {
	s := orig.Clone()
	s.Jobs = keptOf(s.Jobs, atomJob, kept)
	if s.Pool != nil && !kept[atom{atomPool, 0}] {
		s.Pool = nil
	}
	if s.Net != nil {
		if !kept[atom{atomNetBase, 0}] {
			s.Net.Base = netfault.Fault{}
		}
		s.Net.Windows = keptOf(s.Net.Windows, atomNetWindow, kept)
		if s.Net.Base == (netfault.Fault{}) && len(s.Net.Windows) == 0 {
			s.Net = nil
		}
	}
	if s.Disk != nil {
		if !kept[atom{atomDiskCrash, 0}] {
			s.Disk.CrashAtOp = 0
		}
		s.Disk.Rules = keptOf(s.Disk.Rules, atomDiskRule, kept)
		if s.Disk.CrashAtOp == 0 && len(s.Disk.Rules) == 0 {
			s.Disk = nil
		}
	}
	if s.Num != nil {
		if s.Num.Rules = keptOf(s.Num.Rules, atomNumRule, kept); len(s.Num.Rules) == 0 {
			s.Num = nil
		}
	}
	if s.Clock != nil {
		if s.Clock.Rules = keptOf(s.Clock.Rules, atomClockRule, kept); len(s.Clock.Rules) == 0 {
			s.Clock = nil
		}
	}
	s.Procs = keptOf(s.Procs, atomProc, kept)
	return s
}

// keptOf returns the elements of xs whose atom (kind, index) is kept, in
// order.
func keptOf[T any](xs []T, kind atomKind, kept map[atom]bool) []T {
	var out []T
	for i, x := range xs {
		if kept[atom{kind, i}] {
			out = append(out, x)
		}
	}
	return out
}

type minimizer struct {
	pred  Predicate
	cache map[string]bool // canonical JSON -> fails?
	stats Stats
}

// fails evaluates one candidate, through the predicate cache. Invalid
// candidates (e.g. a worker proc action surviving while the pool atom was
// dropped) are non-failing by definition: the minimizer simply keeps the
// atoms such a candidate removed.
func (m *minimizer) fails(ctx context.Context, s Spec) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	key := string(s.Canonical())
	if v, ok := m.cache[key]; ok {
		m.stats.CacheHits++
		return v, nil
	}
	if err := s.Validate(); err != nil {
		m.cache[key] = false
		return false, nil
	}
	m.stats.Runs++
	ok, err := m.pred(ctx, s)
	if err != nil {
		return false, err
	}
	m.cache[key] = ok
	return ok, nil
}

// ddmin is Zeller's minimizing delta debugging over the atom list: repeatedly
// try dropping chunks (complements of an n-way partition); when nothing can
// be dropped at granularity n, double n; stop when single-atom drops all
// resurrect the pass — the kept set is then 1-minimal.
func (m *minimizer) ddmin(ctx context.Context, orig Spec, atoms []atom) ([]atom, error) {
	cur := atoms
	n := 2
	for len(cur) >= 2 {
		if err := ctx.Err(); err != nil {
			return cur, err
		}
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			if err := ctx.Err(); err != nil {
				return cur, err
			}
			end := min(start+chunk, len(cur))
			complement := make([]atom, 0, len(cur)-(end-start))
			complement = append(complement, cur[:start]...)
			complement = append(complement, cur[end:]...)
			ok, err := m.fails(ctx, buildCandidate(orig, keepSet(complement)))
			if err != nil {
				return cur, err
			}
			if ok {
				cur = complement
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(len(cur), 2*n)
		}
	}
	return cur, nil
}

// shrinkWindows repeatedly narrows each bounded num-rule step window and each
// net window to whichever half still fails, until no half does.
func (m *minimizer) shrinkWindows(ctx context.Context, best Spec) (Spec, error) {
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		changed = false
		// try narrows one window to whichever half of [from, to) still
		// fails; set writes a half into a candidate's copy of the window.
		try := func(from, to int64, set func(c *Spec, from, to int64)) error {
			mid := from + (to-from)/2
			for _, half := range [][2]int64{{from, mid}, {mid, to}} {
				cand := best.Clone()
				set(&cand, half[0], half[1])
				ok, err := m.fails(ctx, cand)
				if err != nil {
					return err
				}
				if ok {
					best, changed = cand, true
					m.stats.Halvings++
					return nil
				}
			}
			return nil
		}
		if best.Num != nil {
			for i, r := range best.Num.Rules {
				if r.ToStep == 0 || r.ToStep-r.FromStep < 2 {
					continue // unbounded or already a single step
				}
				if err := try(int64(r.FromStep), int64(r.ToStep), func(c *Spec, from, to int64) {
					c.Num.Rules[i].FromStep, c.Num.Rules[i].ToStep = int(from), int(to)
				}); err != nil {
					return best, err
				}
			}
		}
		if best.Net != nil {
			for i, w := range best.Net.Windows {
				if w.To-w.From < 2 {
					continue
				}
				if err := try(int64(w.From), int64(w.To), func(c *Spec, from, to int64) {
					c.Net.Windows[i].From, c.Net.Windows[i].To = schedfile.Duration(from), schedfile.Duration(to)
				}); err != nil {
					return best, err
				}
			}
		}
	}
	return best, nil
}

// halveTimeline scales every time offset — net windows and period, proc At —
// down by two while the failure survives, so the minimized repro also replays
// quickly.
func (m *minimizer) halveTimeline(ctx context.Context, best Spec) (Spec, error) {
	for {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		cand := best.Clone()
		scaled := false
		if cand.Net != nil {
			for i := range cand.Net.Windows {
				w := &cand.Net.Windows[i]
				if w.To-w.From >= 2 || w.From >= 2 {
					w.From, w.To = w.From/2, (w.To+1)/2
					scaled = true
				}
			}
			if cand.Net.Period > 0 {
				half := (cand.Net.Period + 1) / 2
				// Only shrink the period while every window still fits in it.
				fits := true
				for _, w := range cand.Net.Windows {
					if w.To > half {
						fits = false
						break
					}
				}
				if fits && half < cand.Net.Period {
					cand.Net.Period = half
					scaled = true
				}
			}
		}
		for i := range cand.Procs {
			if cand.Procs[i].At >= 2 {
				cand.Procs[i].At /= 2
				scaled = true
			}
		}
		if !scaled {
			return best, nil
		}
		ok, err := m.fails(ctx, cand)
		if err != nil {
			return best, err
		}
		if !ok {
			return best, nil
		}
		best = cand
		m.stats.Halvings++
	}
}
