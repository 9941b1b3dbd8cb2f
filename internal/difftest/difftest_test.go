package difftest

import (
	"sort"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/prolog"
	"xlp/internal/randgen"
	"xlp/internal/testutil"
)

// TestSweepAllShapes is the package's core assertion: across every
// generator shape, every applicable backend pair and metamorphic
// transform agrees. Any finding here is a real bug in one of the
// backends (or the harness) — reproduce with the printed seed.
func TestSweepAllShapes(t *testing.T) {
	// The sweep spins up short-lived services (store_roundtrip) and
	// engine runs; none of them may strand a goroutine.
	defer testutil.AssertNoLeaks(t, testutil.Goroutines())
	n := 64
	if testing.Short() {
		n = 16
	}
	sum, err := Run(Options{N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Findings {
		t.Errorf("%s %s seed=%d: %s\nshrunk:\n%s", f.Check, f.Shape, f.Seed, f.Detail, f.Source)
	}
	if sum.Programs != n {
		t.Fatalf("ran %d programs, want %d", sum.Programs, n)
	}
	if len(sum.ShapeRuns) != len(randgen.Shapes()) {
		t.Errorf("shapes exercised %v, want all %d", sum.ShapeRuns, len(randgen.Shapes()))
	}
	for _, c := range Checks() {
		if sum.ChecksRun[c.Name] == 0 {
			t.Errorf("check %s never ran", c.Name)
		}
	}
}

// TestTablesImplCorpusSweep runs the full benchmark corpus — every
// Table 1 logic program and every Table 3 functional program — through
// the tables_trie_vs_stringmap oracle: the two table representations
// must produce identical analysis results and identical evaluation
// counters on real programs, not just generated ones.
func TestTablesImplCorpusSweep(t *testing.T) {
	c, ok := CheckByName("tables_trie_vs_stringmap")
	if !ok {
		t.Fatal("tables_trie_vs_stringmap not registered")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run("prolog/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.Mixed}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run("fl/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.FLFirstOrder}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestModesThreewayCorpusSweep runs the full benchmark corpus through
// the modes_interp_vs_closure oracle: the interpreter and the closure
// compiler must produce identical analysis results (answers and
// recorded calls) on every real program.
func TestModesThreewayCorpusSweep(t *testing.T) {
	c, ok := CheckByName("modes_interp_vs_closure")
	if !ok {
		t.Fatal("modes_interp_vs_closure not registered")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run("prolog/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.Mixed}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run("fl/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.FLFirstOrder}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestParallelVsSequentialCorpusSweep runs the full benchmark corpus —
// every Table 1 logic program and every Table 3 functional program —
// through the parallel_vs_sequential oracle: parallel evaluation must
// reproduce the sequential answers, call patterns, and evaluation
// counters exactly on real programs, not just generated ones.
func TestParallelVsSequentialCorpusSweep(t *testing.T) {
	c, ok := CheckByName("parallel_vs_sequential")
	if !ok {
		t.Fatal("parallel_vs_sequential not registered")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run("prolog/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.Mixed}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run("fl/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.FLFirstOrder}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestProvenanceSoundCorpusSweep runs the full benchmark corpus through
// the provenance_sound oracle: on every real program, recording
// justifications must not perturb the analysis, and every recorded
// justification must re-check against the producing clause.
func TestProvenanceSoundCorpusSweep(t *testing.T) {
	c, ok := CheckByName("provenance_sound")
	if !ok {
		t.Fatal("provenance_sound not registered")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run("prolog/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.Mixed}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run("fl/"+p.Name, func(t *testing.T) {
			if err := c.Run(Meta{Shape: randgen.FLFirstOrder}, p.Source); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRegressionsReplay re-runs every committed shrunk counterexample
// through its original check. These were findings once; they must stay
// fixed.
func TestRegressionsReplay(t *testing.T) {
	regs, err := LoadRegressions("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		r := r
		t.Run(r.Path, func(t *testing.T) {
			c, ok := CheckByName(r.Check)
			if !ok {
				t.Fatalf("unknown check %q", r.Check)
			}
			if err := c.Run(r.Meta, r.Source); err != nil {
				t.Errorf("regression resurfaced: %v", err)
			}
		})
	}
}

// TestShrink verifies the reducer against an injected failure: a check
// that rejects any program mentioning the m0 predicate must shrink a
// mutual-recursion program down to essentially one clause.
func TestShrink(t *testing.T) {
	p := randgen.Generate(randgen.Config{Shape: randgen.MutualRec, Seed: 3})
	c := Check{
		Name: "inject",
		Run: func(m Meta, src string) error {
			if strings.Contains(src, "m0(") {
				return errMismatch
			}
			return nil
		},
	}
	m := Meta{Shape: randgen.MutualRec, Seed: 3, Entry: p.Entry, Preds: p.Preds}
	orig := c.Run(m, p.Source)
	if orig == nil {
		t.Fatalf("injected check did not fail on\n%s", p.Source)
	}
	shrunk := Shrink(c, m, p.Source, orig)
	if err := c.Run(m, shrunk); err == nil {
		t.Fatalf("shrunk program no longer fails:\n%s", shrunk)
	}
	if got := len(nonEmptyLines(shrunk)); got > 2 {
		t.Errorf("shrunk to %d lines, want <= 2:\n%s", got, shrunk)
	}
	if len(shrunk) >= len(p.Source) {
		t.Errorf("shrink did not reduce size (%d -> %d)", len(p.Source), len(shrunk))
	}
}

var errMismatch = &mismatchErr{}

type mismatchErr struct{}

func (*mismatchErr) Error() string { return "mismatch: injected" }

func TestAlphaRename(t *testing.T) {
	src := "p0(V0, V1) :- q0(V1, V0).\n"
	want := "p0(Y0, Y1) :- q0(Y1, Y0).\n"
	if got := alphaRename(src); got != want {
		t.Errorf("alphaRename = %q, want %q", got, want)
	}
}

func TestRenamePreds(t *testing.T) {
	src := ":- table p0/1.\np0(a).\np10(V0, V0) :- p0(V0).\n"
	got := renamePreds(src, renameMap([]string{"p0/1"}))
	want := ":- table rn_p0/1.\nrn_p0(a).\np10(V0, V0) :- rn_p0(V0).\n"
	if got != want {
		t.Errorf("renamePreds = %q, want %q", got, want)
	}
}

func TestReorderClausesPreservesLines(t *testing.T) {
	p := randgen.Generate(randgen.Config{Shape: randgen.Datalog, Seed: 11})
	out := reorderClauses(p.Source, 99)
	a, b := nonEmptyLines(p.Source), nonEmptyLines(out)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("reorderClauses changed the clause multiset:\n%s\nvs\n%s", p.Source, out)
	}
	// Directives must still precede everything they table.
	if _, err := prolog.ParseProgram(out); err != nil {
		t.Errorf("reordered program no longer parses: %v", err)
	}
}

func TestReorderGoalsParses(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := randgen.Generate(randgen.Config{Shape: randgen.Mixed, Seed: seed})
		out, err := reorderGoals(p.Source, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := prolog.ParseProgram(out); err != nil {
			t.Fatalf("seed %d: reordered program does not parse: %v\n%s", seed, err, out)
		}
	}
}

func TestRegressionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := Finding{
		Check: "prop-gaia", Shape: randgen.Mixed, Seed: 42,
		Entry:  "p0(V0)",
		Detail: "mismatch: p0/1: prop=\"1\" gaia=\"0\"",
		Source: ":- table p0/1.\np0(a).\np0(V0) :- p0(V0).\n",
	}
	path, err := writeRegression(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := LoadRegressions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("loaded %d regressions, want 1", len(regs))
	}
	r := regs[0]
	if r.Path != path || r.Check != f.Check || r.Meta.Seed != 42 ||
		r.Meta.Shape != randgen.Mixed || r.Meta.Entry != f.Entry {
		t.Errorf("round-trip mangled metadata: %+v", r)
	}
	if r.Source != f.Source {
		t.Errorf("round-trip mangled source: %q vs %q", r.Source, f.Source)
	}
	if want := []string{"p0/1"}; strings.Join(r.Meta.Preds, ",") != strings.Join(want, ",") {
		t.Errorf("recovered preds %v, want %v", r.Meta.Preds, want)
	}
}
