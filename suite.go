package repro

// Declarative scenario surface: the canonical pim-render/spec/v1
// simulation spec and the pim-render/suite/v1 scenario-suite format, with
// a farm-backed runner. See DESIGN.md §14 for the formats and the
// one-true-mapping rule.

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/suite"
)

// Spec is the canonical declarative description of one simulation
// (schema pim-render/spec/v1). Its JSON form is the pimfarm job body, the
// dist lease grant, the journal record, and the per-case "spec" object in
// suite files; Resolve is the single Spec → Options/cache-key mapping in
// the tree.
type Spec = suite.Spec

// SpecSchema identifies the canonical simulation-spec document.
const SpecSchema = suite.SpecSchema

// ParseSpec decodes a standalone spec/v1 JSON document strictly (unknown
// fields are rejected).
func ParseSpec(data []byte) (*Spec, error) { return suite.ParseSpec(data) }

// ParseDesign resolves a design name ("baseline", "bpim", "s-tfim",
// "A-TFIM", ...) to its Design value; it round-trips Design.String and
// accepts the empty string as Baseline.
func ParseDesign(s string) (Design, error) { return config.ParseDesign(s) }

// Suite is a declarative scenario set (schema pim-render/suite/v1): named
// cases, each one canonical Spec plus tags/tier/difficulty metadata, with
// optional per-metric golden tolerances.
type Suite = suite.Suite

// SuiteCase is one scenario of a suite.
type SuiteCase = suite.Case

// SuiteFilter selects suite cases by tags, tier and difficulty.
type SuiteFilter = suite.Filter

// SuiteSchema identifies the suite document layout.
const SuiteSchema = suite.Schema

// LoadSuite reads, strictly parses and validates a suite/v1 file.
func LoadSuite(path string) (*Suite, error) { return suite.Load(path) }

// ParseSuite decodes and validates a suite/v1 document.
func ParseSuite(data []byte) (*Suite, error) { return suite.Parse(data) }

// SuiteCaseResult is one completed suite case.
type SuiteCaseResult = suite.CaseResult

// SuiteCaseResults is a completed suite run in declaration order; its
// ExperimentSet method renders the pim-render/experiments/v1 document the
// golden-baseline machinery checks.
type SuiteCaseResults = suite.CaseResults

// SuiteRunner executes suites on the shared sweep fan-out: cases run in
// parallel (deduped by cache key), then aggregate serially in
// declaration order, so a suite run is byte-identical to running each
// case's spec alone — at any parallelism.
type SuiteRunner = suite.Runner

// SimulateSpec resolves the canonical spec and renders it, layering any
// extra runtime options (tracer, progress, frame profile) on top of the
// spec's configuration. The extras are runtime-only: they never change
// simulated results or the cache identity.
func SimulateSpec(ctx context.Context, sp *Spec, extra ...Option) (*Result, error) {
	rv, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	opts := rv.Options
	for _, fn := range extra {
		fn(&opts)
	}
	return core.RunContext(ctx, rv.Workload, opts)
}
