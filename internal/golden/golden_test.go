package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleSet() *obs.ExperimentSet {
	set := obs.NewExperimentSet("mini")
	set.Experiments = append(set.Experiments, obs.ExperimentResult{
		Name:    "fig10",
		Title:   "Filtering time",
		Columns: []string{"workload", "baseline", "atfim"},
		Rows: [][]string{
			{"doom3-320x240", "1.00", "0.42"},
			{"fear-320x240", "1.00", "0.45"},
		},
		Summary: map[string]float64{"speedup.geomean": 2.31, "traffic.ratio": 0.87},
	}, obs.ExperimentResult{
		Name:    "fig12",
		Title:   "Traffic",
		Columns: []string{"workload", "bytes"},
		Rows:    [][]string{{"doom3-320x240", "123"}},
		Summary: map[string]float64{"traffic.total": 123456},
	})
	return set
}

func TestBaselineWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	set := sampleSet()
	n, err := WriteBaselines(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d baselines, want 2", n)
	}
	doc, err := LoadBaseline(dir, "fig10")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != BaselineSchema || doc.Set != "mini" {
		t.Fatalf("doc header: %+v", doc)
	}
	if doc.Experiment.Summary["speedup.geomean"] != 2.31 {
		t.Fatalf("summary did not round-trip: %+v", doc.Experiment.Summary)
	}
}

func TestBaselineRejectsUnsafeNames(t *testing.T) {
	set := obs.NewExperimentSet("mini")
	set.Experiments = append(set.Experiments, obs.ExperimentResult{Name: "../escape"})
	if _, err := WriteBaselines(t.TempDir(), set); err == nil {
		t.Fatal("WriteBaselines accepted a path-traversal name")
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteBaselines(dir, sampleSet()); err != nil {
		t.Fatal(err)
	}
	cur := sampleSet()
	cur.Experiments[0].Summary["speedup.geomean"] *= 1 + 1e-9 // well inside 1e-6

	rep, err := Check(dir, cur, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("check failed: %+v", rep)
	}
	if len(rep.OK) != 2 || rep.Metrics != 3 {
		t.Fatalf("ok=%v metrics=%d", rep.OK, rep.Metrics)
	}
}

func TestCheckDetectsDrift(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteBaselines(dir, sampleSet()); err != nil {
		t.Fatal(err)
	}
	cur := sampleSet()
	cur.Experiments[0].Summary["speedup.geomean"] = 2.5 // ~8% off

	rep, err := Check(dir, cur, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || len(rep.Drifts) != 1 {
		t.Fatalf("drifts: %+v", rep.Drifts)
	}
	d := rep.Drifts[0]
	if d.Experiment != "fig10" || d.Metric != "speedup.geomean" || d.Baseline != 2.31 || d.Current != 2.5 {
		t.Fatalf("drift: %+v", d)
	}

	// The readable report names the drift and ends with FAIL.
	var sb strings.Builder
	rep.Write(&sb)
	out := sb.String()
	for _, want := range []string{"fig10", "DRIFT", "speedup.geomean", "FAIL", "fig12"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCheckStructuralDrift(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteBaselines(dir, sampleSet()); err != nil {
		t.Fatal(err)
	}
	cur := sampleSet()
	cur.Experiments[0].Columns = []string{"workload", "baseline"}  // column dropped
	cur.Experiments[1].Rows = append(cur.Experiments[1].Rows, nil) // row added
	delete(cur.Experiments[0].Summary, "traffic.ratio")            // metric vanished
	cur.Experiments[0].Summary["speedup.arith"] = 2.0              // metric appeared

	rep, err := Check(dir, cur, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Drifts) != 4 {
		t.Fatalf("drifts = %d, want 4: %+v", len(rep.Drifts), rep.Drifts)
	}
}

func TestCheckMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	set := sampleSet()
	// Only fig10 is committed; fig12 ran without a baseline.
	one := obs.NewExperimentSet("mini")
	one.Experiments = set.Experiments[:1]
	if _, err := WriteBaselines(dir, one); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(dir, set, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || len(rep.Missing) != 1 || rep.Missing[0] != "fig12" {
		t.Fatalf("missing = %v", rep.Missing)
	}

	// The reverse is fine: a committed baseline for an experiment that did
	// not run (e.g. -exp selection) is ignored.
	rep, err = Check(dir, one, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("selection check failed: %+v", rep)
	}
}

func TestCheckPerMetricToleranceFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteBaselines(dir, sampleSet()); err != nil {
		t.Fatal(err)
	}
	cur := sampleSet()
	cur.Experiments[0].Summary["speedup.geomean"] = 2.33 // ~0.9% off

	rep, err := Check(dir, cur, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("0.9%% drift passed the default 1e-6 tolerance")
	}

	// A tolerances.json override loosens just that metric.
	overrides := []byte(`{"fig10.speedup.geomean": 0.05}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, TolerancesFile), overrides, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Check(dir, cur, Tolerance{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("override did not apply: %+v", rep.Drifts)
	}
}
