package engine_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/prop"
	"xlp/internal/randgen"
	"xlp/internal/strict"
	"xlp/internal/term"
	"xlp/internal/testutil"
)

// trajectoryPath holds the evaluation trajectory of the analyses on the
// corpus and on a fixed randgen sample, under both clause backends:
// the call/answer-table counts, producer runs and passes, table space,
// resolutions, and a hash of the full table dump (answer order
// included, variables canonically numbered). Engine changes must leave
// every field identical except resolutions, which may only fall: an
// optimization that skips duplicate derivations removes resolutions
// and nothing else. Delete the file and re-run to re-record after a
// deliberate change.
const trajectoryPath = "testdata/trajectory.txt"

// trajectoryRandgen is the number of generated programs per shape.
const trajectoryRandgen = 10

// trajectoryRecord renders one machine's trajectory line.
func trajectoryRecord(key string, m *engine.Machine) string {
	s := m.Stats()
	return testutil.TrajectoryLine(key, trajectoryFields(s), engine.CanonicalDump(m))
}

func trajectoryFields(s engine.Stats) [][2]string {
	itoa := strconv.Itoa
	return [][2]string{
		{"subgoals", itoa(s.Subgoals)},
		{"answers", itoa(s.Answers)},
		{"runs", itoa(s.ProducerRuns)},
		{"passes", itoa(s.ProducerPasses)},
		{"nodes", itoa(s.TableNodes)},
		{"bytes", itoa(s.TableBytes)},
		{"resolutions", itoa(s.Resolutions)},
	}
}

var trajectoryModes = []struct {
	name string
	mode engine.LoadMode
}{
	{"interp", engine.LoadDynamic},
	{"closure", engine.ModeClosure},
}

// propTrajectory runs the groundness analysis (open calls) with the
// machine retained; provenance recording does not touch the counters.
func propTrajectory(key, src string, mode engine.LoadMode) (string, error) {
	a, err := prop.Analyze(src, prop.Options{Engine: engine.Config{Mode: mode}, Provenance: true})
	if err != nil {
		return "", err
	}
	return trajectoryRecord(key, a.Machine), nil
}

func strictTrajectory(key, src string, nosupp bool, mode engine.LoadMode) (string, error) {
	a, err := strict.Analyze(src, strict.Options{
		Engine:          engine.Config{Mode: mode},
		NoSupplementary: nosupp,
		Provenance:      true,
	})
	if err != nil {
		return "", err
	}
	return trajectoryRecord(key, a.Machine), nil
}

// datalogTrajectory evaluates a generated Datalog program directly:
// open calls of every predicate, in definition order.
func datalogTrajectory(key string, p randgen.Program, mode engine.LoadMode) (string, error) {
	m := engine.New()
	m.Mode = mode
	if err := m.Consult(p.Source); err != nil {
		return "", err
	}
	var goals []term.Term
	for _, ind := range p.Preds {
		name, ar, _ := strings.Cut(ind, "/")
		n, _ := strconv.Atoi(ar)
		args := make([]term.Term, n)
		for i := range args {
			args[i] = term.NewVar("V")
		}
		goals = append(goals, term.NewCompound(name, args...))
	}
	if err := m.SolveAll(goals); err != nil {
		return "", err
	}
	return trajectoryRecord(key, m), nil
}

func TestGoldenTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus and randgen sweep")
	}
	var lines []string
	add := func(line string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	for _, md := range trajectoryModes {
		for _, p := range corpus.LogicPrograms() {
			add(propTrajectory(fmt.Sprintf("prop/%s/%s", p.Name, md.name), p.Source, md.mode))
		}
		for _, p := range corpus.FuncPrograms() {
			for _, nosupp := range []bool{false, true} {
				tag := "supp"
				if nosupp {
					tag = "nosupp"
				}
				add(strictTrajectory(fmt.Sprintf("strict/%s/%s/%s", p.Name, tag, md.name), p.Source, nosupp, md.mode))
			}
		}
		for _, shape := range randgen.Shapes() {
			for i := 0; i < trajectoryRandgen; i++ {
				seed := int64(2000 + i)
				p := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
				key := fmt.Sprintf("randgen/%s-%d/%s", shape, seed, md.name)
				switch {
				case shape.Lang() == randgen.LangFL:
					add(strictTrajectory(key, p.Source, false, md.mode))
				case shape == randgen.Datalog:
					add(datalogTrajectory(key, p, md.mode))
				default:
					add(propTrajectory(key, p.Source, md.mode))
				}
			}
		}
	}
	testutil.CheckTrajectory(t, trajectoryPath, lines, "resolutions")
}

// TestSemiNaiveGuard catches semi-naive pruning that was silently
// disabled: with it, the strictness corpus (default options) makes
// 50,471 resolutions in total and pcprove alone 22,135; the naive
// re-passes made 89,818 and 45,072. Resolution counts are
// deterministic, so the bar is 1.1x the recorded values.
func TestSemiNaiveGuard(t *testing.T) {
	const recordedTotal, recordedPcprove = 50471, 22135
	total := 0
	for _, p := range corpus.FuncPrograms() {
		a, err := strict.Analyze(p.Source, strict.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		n := a.EngineStats.Resolutions
		total += n
		if p.Name == "pcprove" && n*10 > recordedPcprove*11 {
			t.Errorf("pcprove: %d resolutions, over 1.1x the recorded %d", n, recordedPcprove)
		}
	}
	if total*10 > recordedTotal*11 {
		t.Errorf("strictness corpus: %d resolutions, over 1.1x the recorded %d", total, recordedTotal)
	}
}

// TestResolutionAllocGuard catches interpreted resolution that went back
// to copying clauses or answers: the strictness and the groundness
// corpus sweeps (default options, so the dynamic-loading backend) and
// pcprove alone allocate the counts below. Allocation counts are
// deterministic up to a few dozen per sweep, so the bar is 1.1x the
// recorded values.
func TestResolutionAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweeps")
	}
	const recordedStrict, recordedProp, recordedPcprove = 491470, 316864, 153936
	strictSweep := func(name string) func() {
		return func() {
			for _, p := range corpus.FuncPrograms() {
				if name != "" && p.Name != name {
					continue
				}
				if _, err := strict.Analyze(p.Source, strict.Options{}); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
			}
		}
	}
	propSweep := func() {
		for _, p := range corpus.LogicPrograms() {
			if _, err := prop.Analyze(p.Source, prop.Options{}); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
	}
	for _, c := range []struct {
		name     string
		run      func()
		recorded int
	}{
		{"strictness corpus", strictSweep(""), recordedStrict},
		{"groundness corpus", propSweep, recordedProp},
		{"pcprove", strictSweep("pcprove"), recordedPcprove},
	} {
		n := testing.AllocsPerRun(1, c.run)
		t.Logf("%s: %.0f allocations", c.name, n)
		if n*10 > float64(c.recorded)*11 {
			t.Errorf("%s: %.0f allocations, over 1.1x the recorded %d", c.name, n, c.recorded)
		}
	}
}
