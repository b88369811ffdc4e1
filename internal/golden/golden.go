// Package golden is golden-baseline regression checking: paperbench
// -write-baseline snapshots every experiment's table and summary metrics
// into a directory of small JSON documents, and -check diffs a fresh run
// against them within per-metric tolerances, producing a readable
// per-experiment report and a non-zero exit on drift. The committed
// golden/ directory plus a CI job guard the paper's reproduced shapes (the
// A-TFIM filtering speedup, the S-TFIM traffic blow-up, the Fig. 14-16
// threshold knee) against silent regression.
package golden

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/store"
)

// BaselineSchema identifies the golden-baseline document layout.
const BaselineSchema = "pim-render/baseline/v1"

// Default tolerances for metric comparison. The simulator is deterministic,
// so the defaults are tight; per-metric overrides loosen individual
// comparisons (see TolerancesFile).
const (
	DefaultRelTol = 1e-6
	DefaultAbsTol = 1e-9
)

// TolerancesFile, when present in the baseline directory, maps
// "<experiment>.<metric>" to a relative tolerance overriding the default
// for that one comparison.
const TolerancesFile = "tolerances.json"

// BaselineDoc is one committed golden baseline (one experiment).
type BaselineDoc struct {
	Schema string `json:"schema"`
	// Set names the workload set the baseline was recorded on.
	Set        string               `json:"set,omitempty"`
	Experiment obs.ExperimentResult `json:"experiment"`
}

// WriteBaselines writes one golden-baseline file per experiment in set
// (atomically, so an interrupted write never corrupts a committed golden
// directory) and returns how many it wrote.
func WriteBaselines(dir string, set *obs.ExperimentSet) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	n := 0
	for _, e := range set.Experiments {
		if strings.ContainsAny(e.Name, `/\`) {
			return n, fmt.Errorf("baseline: unsafe experiment name %q", e.Name)
		}
		doc := BaselineDoc{Schema: BaselineSchema, Set: set.Set, Experiment: e}
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return n, fmt.Errorf("baseline: %s: %w", e.Name, err)
		}
		data = append(data, '\n')
		if err := store.WriteFileAtomic(filepath.Join(dir, e.Name+".json"), data); err != nil {
			return n, fmt.Errorf("baseline: %s: %w", e.Name, err)
		}
		n++
	}
	return n, nil
}

// LoadBaseline reads one golden baseline by experiment name.
func LoadBaseline(dir, name string) (*BaselineDoc, error) {
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return nil, err
	}
	var doc BaselineDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("baseline: %s: %w", name, err)
	}
	if doc.Schema != BaselineSchema {
		return nil, fmt.Errorf("baseline: %s: schema %q (want %q)", name, doc.Schema, BaselineSchema)
	}
	return &doc, nil
}

// Tolerance configures metric comparison for Check.
type Tolerance struct {
	// Rel is the relative tolerance; <= 0 selects DefaultRelTol.
	Rel float64
	// Abs is the absolute floor (guards near-zero baselines); <= 0 selects
	// DefaultAbsTol.
	Abs float64
	// PerMetric maps "<experiment>.<metric>" to a relative tolerance
	// overriding Rel for that comparison.
	PerMetric map[string]float64
}

// allowed returns the permitted absolute deviation for one metric.
func (t Tolerance) allowed(exp, metric string, baseline float64) float64 {
	rel := t.Rel
	if rel <= 0 {
		rel = DefaultRelTol
	}
	abs := t.Abs
	if abs <= 0 {
		abs = DefaultAbsTol
	}
	if o, ok := t.PerMetric[exp+"."+metric]; ok {
		rel = o
	}
	d := rel * math.Abs(baseline)
	if d < abs {
		d = abs
	}
	return d
}

// Drift is one detected divergence from a golden baseline.
type Drift struct {
	Experiment string `json:"experiment"`
	// Metric is the summary metric that drifted ("" for structural drift:
	// changed columns, row counts or row labels).
	Metric   string  `json:"metric,omitempty"`
	Reason   string  `json:"reason"`
	Baseline float64 `json:"baseline,omitempty"`
	Current  float64 `json:"current,omitempty"`
}

// CheckReport is the outcome of one baseline check.
type CheckReport struct {
	Dir string `json:"dir"`
	// OK lists experiments that matched their baselines.
	OK []string `json:"ok,omitempty"`
	// Missing lists experiments that ran but have no committed baseline.
	Missing []string `json:"missing,omitempty"`
	// Drifts lists every divergence found.
	Drifts []Drift `json:"drifts,omitempty"`
	// Metrics counts the metric comparisons performed.
	Metrics int `json:"metrics"`
}

// Failed reports whether the check should fail the run.
func (r *CheckReport) Failed() bool { return len(r.Missing) > 0 || len(r.Drifts) > 0 }

// Write renders the readable per-experiment report.
func (r *CheckReport) Write(w io.Writer) {
	drifted := map[string][]Drift{}
	for _, d := range r.Drifts {
		drifted[d.Experiment] = append(drifted[d.Experiment], d)
	}
	names := append([]string{}, r.OK...)
	for name := range drifted {
		names = append(names, name)
	}
	names = append(names, r.Missing...)
	sort.Strings(names)
	missing := map[string]bool{}
	for _, name := range r.Missing {
		missing[name] = true
	}
	fmt.Fprintf(w, "baseline check against %s (%d experiments, %d metrics):\n",
		r.Dir, len(names), r.Metrics)
	for _, name := range names {
		switch {
		case missing[name]:
			fmt.Fprintf(w, "  %-10s MISSING (no committed baseline; run -write-baseline)\n", name)
		case len(drifted[name]) > 0:
			fmt.Fprintf(w, "  %-10s DRIFT\n", name)
			for _, d := range drifted[name] {
				if d.Metric != "" {
					fmt.Fprintf(w, "    %s: baseline %.6g, current %.6g — %s\n",
						d.Metric, d.Baseline, d.Current, d.Reason)
				} else {
					fmt.Fprintf(w, "    %s\n", d.Reason)
				}
			}
		default:
			fmt.Fprintf(w, "  %-10s OK\n", name)
		}
	}
	if r.Failed() {
		fmt.Fprintf(w, "baseline check: FAIL (%d drifted, %d missing)\n",
			len(drifted), len(r.Missing))
	} else {
		fmt.Fprintf(w, "baseline check: PASS\n")
	}
}

// Check compares every experiment in set against the golden baselines in
// dir. Experiments without a baseline are reported as Missing; committed
// baselines for experiments that did not run are ignored (so -exp
// selections check only what ran). A tolerances.json file in dir supplies
// per-metric overrides (entries already present in tol.PerMetric win).
func Check(dir string, set *obs.ExperimentSet, tol Tolerance) (*CheckReport, error) {
	if overrides, err := loadTolerances(dir); err != nil {
		return nil, err
	} else if len(overrides) > 0 {
		merged := make(map[string]float64, len(overrides)+len(tol.PerMetric))
		for k, v := range overrides {
			merged[k] = v
		}
		for k, v := range tol.PerMetric {
			merged[k] = v
		}
		tol.PerMetric = merged
	}
	rep := &CheckReport{Dir: dir}
	for _, cur := range set.Experiments {
		doc, err := LoadBaseline(dir, cur.Name)
		if err != nil {
			if os.IsNotExist(err) {
				rep.Missing = append(rep.Missing, cur.Name)
				continue
			}
			return nil, err
		}
		drifts, metrics := compareExperiment(&doc.Experiment, &cur, tol)
		rep.Metrics += metrics
		if len(drifts) == 0 {
			rep.OK = append(rep.OK, cur.Name)
		} else {
			rep.Drifts = append(rep.Drifts, drifts...)
		}
	}
	return rep, nil
}

// compareExperiment diffs one current experiment against its baseline:
// table structure (columns, row count, row labels) exactly, summary
// metrics within tolerance.
func compareExperiment(base, cur *obs.ExperimentResult, tol Tolerance) ([]Drift, int) {
	var drifts []Drift
	structural := func(reason string) {
		drifts = append(drifts, Drift{Experiment: cur.Name, Reason: reason})
	}
	if strings.Join(base.Columns, "|") != strings.Join(cur.Columns, "|") {
		structural(fmt.Sprintf("columns changed: baseline %v, current %v", base.Columns, cur.Columns))
	}
	if len(base.Rows) != len(cur.Rows) {
		structural(fmt.Sprintf("row count changed: baseline %d, current %d", len(base.Rows), len(cur.Rows)))
	} else {
		for i := range base.Rows {
			if len(base.Rows[i]) == 0 || len(cur.Rows[i]) == 0 {
				continue
			}
			if base.Rows[i][0] != cur.Rows[i][0] {
				structural(fmt.Sprintf("row %d label changed: baseline %q, current %q",
					i, base.Rows[i][0], cur.Rows[i][0]))
			}
		}
	}

	metrics := 0
	for _, name := range sortedMetricNames(base.Summary) {
		want := base.Summary[name]
		got, ok := cur.Summary[name]
		if !ok {
			drifts = append(drifts, Drift{
				Experiment: cur.Name, Metric: name, Baseline: want,
				Reason: "metric missing from current run",
			})
			continue
		}
		metrics++
		allowed := tol.allowed(cur.Name, name, want)
		if diff := math.Abs(got - want); diff > allowed || math.IsNaN(got) {
			drifts = append(drifts, Drift{
				Experiment: cur.Name, Metric: name, Baseline: want, Current: got,
				Reason: fmt.Sprintf("|Δ| %.6g exceeds tolerance %.6g", diff, allowed),
			})
		}
	}
	for _, name := range sortedMetricNames(cur.Summary) {
		if _, ok := base.Summary[name]; !ok {
			drifts = append(drifts, Drift{
				Experiment: cur.Name, Metric: name, Current: cur.Summary[name],
				Reason: "metric not in baseline (re-record with -write-baseline)",
			})
		}
	}
	return drifts, metrics
}

// loadTolerances reads the optional per-metric override file.
func loadTolerances(dir string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(dir, TolerancesFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("baseline: %s: %w", TolerancesFile, err)
	}
	return m, nil
}

func sortedMetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
