package suite

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/obs"
)

// CaseResult is one completed suite case.
type CaseResult struct {
	Case     Case
	Resolved Resolved
	Result   *core.Result
}

// CaseResults is a completed suite run: every selected case, in suite
// declaration order.
type CaseResults []CaseResult

// Runner executes suites on the shared sweep fan-out (core.Prefetch).
// Cases run in parallel (deduped by cache key, memoized through the run
// cache and durable store of the context's core engine), then aggregate serially in declaration order,
// so a suite run is byte-identical to running each case's spec alone —
// at any parallelism.
type Runner struct {
	// Filter selects which cases run; the zero value runs all of them.
	Filter Filter
}

// Run executes the suite's selected cases and returns their results in
// declaration order. All specs are resolved (and thus validated) before
// any simulation starts, so a bad case fails the run without burning
// compute on its siblings.
func (r *Runner) Run(ctx context.Context, s *Suite) (CaseResults, error) {
	cases := s.Select(r.Filter)
	if len(cases) == 0 {
		return nil, fmt.Errorf("suite %s: no cases match the filter", s.Name)
	}
	resolved := make([]Resolved, len(cases))
	for i := range cases {
		rv, err := cases[i].Spec.Resolve()
		if err != nil {
			return nil, fmt.Errorf("suite %s: case %s: %w", s.Name, cases[i].ID, err)
		}
		resolved[i] = rv
	}

	// Fan out: warm the run cache through the shared sweep fan-out.
	// Identical cases (within this suite or racing with a concurrent
	// sweep) collapse in RunCached's singleflight.
	specs := make([]core.RunSpec, len(cases))
	for i, rv := range resolved {
		specs[i] = core.RunSpec{Workload: rv.Workload, Options: rv.Options}
	}
	if err := core.Prefetch(ctx, specs); err != nil {
		return nil, err
	}

	// Aggregate serially in declaration order. These are cache hits after
	// the fan-out; if an entry was evicted meanwhile RunCached recomputes
	// it, so correctness never depends on cache residency.
	out := make(CaseResults, 0, len(cases))
	for i := range cases {
		res, err := core.RunCachedContext(ctx, resolved[i].Workload, resolved[i].Options)
		if err != nil {
			return nil, fmt.Errorf("suite %s: case %s: %w", s.Name, cases[i].ID, err)
		}
		out = append(out, CaseResult{Case: cases[i], Resolved: resolved[i], Result: res})
	}
	return out, nil
}

// ExperimentSet renders the run as a pim-render/experiments/v1 document:
// one experiment per case (named by case ID) whose rows and summary carry
// every counter and gauge of the case's metrics snapshot. The rendering is
// deterministic, so equal results produce byte-identical documents and the
// golden-baseline machinery (golden.WriteBaselines / golden.Check) applies
// to suites unchanged.
func (rs CaseResults) ExperimentSet(suiteName string) *obs.ExperimentSet {
	set := obs.NewExperimentSet(suiteName)
	for _, cr := range rs {
		set.Experiments = append(set.Experiments, cr.Experiment())
	}
	return set
}

// Experiment renders one case result as an experiment table.
func (cr *CaseResult) Experiment() obs.ExperimentResult {
	m := cr.Result.Metrics()
	exp := obs.ExperimentResult{
		Name:    cr.Case.ID,
		Title:   cr.Case.Spec.Label(),
		Columns: []string{"Metric", "Value"},
		Summary: map[string]float64{},
	}
	counters := make([]string, 0, len(m.Counters))
	for name := range m.Counters {
		counters = append(counters, name)
	}
	sort.Strings(counters)
	gauges := make([]string, 0, len(m.Gauges))
	for name := range m.Gauges {
		gauges = append(gauges, name)
	}
	sort.Strings(gauges)

	exp.Rows = append(exp.Rows, []string{"cycles", strconv.FormatInt(m.Cycles, 10)})
	exp.Summary["cycles"] = float64(m.Cycles)
	for _, name := range counters {
		v := m.Counters[name]
		exp.Rows = append(exp.Rows, []string{name, strconv.FormatUint(v, 10)})
		exp.Summary[name] = float64(v)
	}
	for _, name := range gauges {
		v := m.Gauges[name]
		exp.Rows = append(exp.Rows, []string{name, strconv.FormatFloat(v, 'g', -1, 64)})
		exp.Summary[name] = v
	}
	return exp
}

// Tolerance merges the suite's per-metric overrides into base for golden
// checking. Entries already present in base.PerMetric win, so a
// tolerances.json in the golden directory or an explicit caller override
// still takes precedence over the suite file.
func (s *Suite) Tolerance(base golden.Tolerance) golden.Tolerance {
	if len(s.Tolerances) == 0 {
		return base
	}
	merged := make(map[string]float64, len(s.Tolerances)+len(base.PerMetric))
	for k, v := range s.Tolerances {
		merged[k] = v
	}
	for k, v := range base.PerMetric {
		merged[k] = v
	}
	base.PerMetric = merged
	return base
}
