// Package difftest is the differential-testing harness over randomly
// generated object programs (internal/randgen). The paper's central
// observation — the same analysis computed by very different engines
// yields identical results — is taken as an executable oracle: every
// backend pair that must agree (prop vs gaia vs bddprop, dynamic vs
// closure-compiled loading, native vs pure iff, sliced vs unsliced, tabled
// top-down vs bottom-up on Datalog, strictness with and without
// supplementary tabling) is checked for result equality, alongside
// metamorphic transforms (variable and predicate renaming, clause and
// body-goal reordering) that must leave every analysis unchanged.
//
// A failing program is automatically shrunk (greedy ddmin-style clause
// removal, then per-clause body-goal dropping) to a minimal
// counterexample preserving the failure class, and written to a
// regressions directory for permanent replay.
package difftest

import (
	"fmt"
	"io"
	"strings"

	"xlp/internal/randgen"
)

// Options configures a differential run.
type Options struct {
	// N is the number of generated programs (default 100).
	N int
	// Seed is the base seed; program i uses a seed derived from it.
	Seed int64
	// Shapes restricts generation (default: all shapes).
	Shapes []randgen.Shape
	// Checks restricts the oracle suite by name (default: all).
	Checks []string
	// MaxFindings stops the run early after this many findings
	// (default 10).
	MaxFindings int
	// RegressionDir, when non-empty, receives one shrunk counterexample
	// file per finding.
	RegressionDir string
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
	// Gen overrides the generator size knobs (Shape and Seed are set
	// per program by the harness).
	Gen randgen.Config
}

// Finding is one confirmed disagreement.
type Finding struct {
	Check  string
	Shape  randgen.Shape
	Seed   int64
	Entry  string
	Detail string
	// Source is the shrunk counterexample; Original the full program.
	Source   string
	Original string
	// File is the regression path, when written.
	File string
}

// Summary aggregates a run.
type Summary struct {
	Programs  int
	ChecksRun map[string]int
	ShapeRuns map[string]int
	Findings  []Finding
}

// Run generates opts.N programs and applies every applicable check to
// each. It returns an error only for harness misuse (unknown check or
// shape names); disagreements are reported as Findings.
func Run(opts Options) (*Summary, error) {
	if opts.N <= 0 {
		opts.N = 100
	}
	if opts.MaxFindings <= 0 {
		opts.MaxFindings = 10
	}
	shapes := opts.Shapes
	if len(shapes) == 0 {
		shapes = randgen.Shapes()
	}
	suite, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	sum := &Summary{ChecksRun: map[string]int{}, ShapeRuns: map[string]int{}}
	for i := 0; i < opts.N; i++ {
		shape := shapes[i%len(shapes)]
		cfg := opts.Gen
		cfg.Shape = shape
		cfg.Seed = opts.Seed*1000003 + int64(i)
		p := randgen.Generate(cfg)
		m := Meta{Shape: shape, Seed: cfg.Seed, Entry: p.Entry, Preds: p.Preds}
		sum.Programs++
		sum.ShapeRuns[shape.String()]++
		for _, c := range suite {
			if !c.Applies(shape) {
				continue
			}
			sum.ChecksRun[c.Name]++
			err := c.Run(m, p.Source)
			if err == nil {
				continue
			}
			f := Finding{
				Check: c.Name, Shape: shape, Seed: cfg.Seed, Entry: p.Entry,
				Detail:   err.Error(),
				Original: p.Source,
				Source:   Shrink(c, m, p.Source, err),
			}
			if opts.RegressionDir != "" {
				if path, werr := writeRegression(opts.RegressionDir, f); werr == nil {
					f.File = path
				} else if opts.Verbose != nil {
					fmt.Fprintf(opts.Verbose, "difftest: cannot write regression: %v\n", werr)
				}
			}
			sum.Findings = append(sum.Findings, f)
			if opts.Verbose != nil {
				fmt.Fprintf(opts.Verbose, "FAIL %s %s seed=%d: %s\n", c.Name, shape, cfg.Seed, f.Detail)
			}
			if len(sum.Findings) >= opts.MaxFindings {
				return sum, nil
			}
		}
		if opts.Verbose != nil && (i+1)%50 == 0 {
			fmt.Fprintf(opts.Verbose, "difftest: %d/%d programs, %d findings\n",
				i+1, opts.N, len(sum.Findings))
		}
	}
	return sum, nil
}

func selectChecks(names []string) ([]Check, error) {
	if len(names) == 0 {
		return Checks(), nil
	}
	var out []Check
	for _, n := range names {
		c, ok := CheckByName(n)
		if !ok {
			all := make([]string, 0)
			for _, c := range Checks() {
				all = append(all, c.Name)
			}
			return nil, fmt.Errorf("difftest: unknown check %q (have %s)",
				n, strings.Join(all, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}
