package strict

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/randgen"
)

// goldenPath holds the FuncResult summaries of the corpus and of a
// fixed randgen sample. Preprocessing changes (the strictness transform,
// supplementary tabling) must leave every line byte-identical: answer
// counts included, not just the demand vectors. To re-record after a
// deliberate result change, delete the file and run the test once; it
// writes the file and fails, and the diff goes in review.
const goldenPath = "testdata/golden.txt"

// goldenRandgen is the number of generated programs per FL shape.
const goldenRandgen = 50

type goldenProgram struct {
	name, src string
}

func goldenPrograms() []goldenProgram {
	var out []goldenProgram
	for _, p := range corpus.FuncPrograms() {
		out = append(out, goldenProgram{p.Name, p.Source})
	}
	for _, shape := range []randgen.Shape{randgen.FLFirstOrder, randgen.FLHigherOrder} {
		for i := 0; i < goldenRandgen; i++ {
			seed := int64(1000 + i)
			p := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			out = append(out, goldenProgram{fmt.Sprintf("%s-%d", shape, seed), p.Source})
		}
	}
	return out
}

func TestGoldenResults(t *testing.T) {
	var sb strings.Builder
	for _, p := range goldenPrograms() {
		for _, mode := range []string{"supp", "nosupp"} {
			a, err := Analyze(p.src, Options{NoSupplementary: mode == "nosupp"})
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, mode, err)
			}
			for _, r := range a.Sorted() {
				fmt.Fprintf(&sb, "%s %s %s e=%v d=%v answers=%d/%d\n",
					p.name, mode, r.Indicator, r.UnderE, r.UnderD, r.AnswersE, r.AnswersD)
			}
		}
	}
	got := sb.String()
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; re-run to compare", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n  got  %s\n  want %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

// TestIntermediateSizeGuard bounds the two programs whose supplementary
// tables once dominated the corpus (odprove's sup tables held ~190k
// answers before the lubs moved to their producers). The counts are
// deterministic, so the bar is 2x the recorded values, not a timing.
func TestIntermediateSizeGuard(t *testing.T) {
	recorded := map[string]struct{ answers, nodes int }{
		"odprove":  {1762, 5408},
		"strassen": {1863, 8604},
	}
	for name, rec := range recorded {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(p.Source, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.EngineStats.Answers; got > 2*rec.answers {
			t.Errorf("%s: %d answers, over 2x the recorded %d", name, got, rec.answers)
		}
		if got := a.TableNodes; got > 2*rec.nodes {
			t.Errorf("%s: %d table nodes, over 2x the recorded %d", name, got, rec.nodes)
		}
	}
}
