package depthk

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/term"
	"xlp/internal/testutil"
)

// TestGoldenTrajectory pins the depth-k evaluation trajectory (k=2) on
// pg, qsort, queens and cs under both clause backends: table counts,
// producer runs and passes, table space and a hash of the full table
// dump (variables canonically numbered) must stay identical, and
// resolutions may only fall. It is the depth-k half of
// internal/engine's golden trajectory (the abstraction hooks make
// depth-k the one analysis whose tables go through AnswerAbstraction
// and AbstractUnify). Delete testdata/trajectory.txt and re-run to
// re-record.
func TestGoldenTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("depth-k corpus sweep")
	}
	var lines []string
	for _, md := range []struct {
		name string
		mode engine.LoadMode
	}{{"interp", engine.LoadDynamic}, {"closure", engine.ModeClosure}} {
		for _, name := range []string{"pg", "qsort", "queens", "cs"} {
			p, err := corpus.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			_, m, err := analyze(p.Source, Options{K: 2, Engine: engine.Config{Mode: md.mode}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := m.Stats()
			itoa := strconv.Itoa
			lines = append(lines, testutil.TrajectoryLine(fmt.Sprintf("depthk2/%s/%s", name, md.name), [][2]string{
				{"subgoals", itoa(s.Subgoals)},
				{"answers", itoa(s.Answers)},
				{"runs", itoa(s.ProducerRuns)},
				{"passes", itoa(s.ProducerPasses)},
				{"nodes", itoa(s.TableNodes)},
				{"bytes", itoa(s.TableBytes)},
				{"resolutions", itoa(s.Resolutions)},
			}, canonicalDump(m)))
		}
	}
	testutil.CheckTrajectory(t, "testdata/trajectory.txt", lines, "resolutions")
}

// canonicalDump is DumpTablesString with variables numbered by
// occurrence (term.Canonical), so the hash does not depend on how many
// fresh variables the evaluation happened to create.
func canonicalDump(m *engine.Machine) string {
	var sb strings.Builder
	for _, d := range m.DumpTables("") {
		fmt.Fprintf(&sb, "%s complete=%v\n", term.Canonical(d.Call), d.Complete)
		for _, a := range d.Answers {
			fmt.Fprintf(&sb, "  %s\n", term.Canonical(a))
		}
	}
	return sb.String()
}
