package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xlp/internal/prolog"
	"xlp/internal/term"
	"xlp/internal/testutil"
)

// clusterSrc builds a program of n independent predicate clusters, each
// a small transitive closure over its own edge relation — disjoint
// tabled cones, so SolveAll can evaluate the clusters concurrently.
func clusterSrc(n int) (src string, goals []string) {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ":- table tc%d/2.\n", i)
		fmt.Fprintf(&sb, "e%d(1,2). e%d(2,3). e%d(3,1). e%d(3,%d).\n", i, i, i, i, 4+i)
		fmt.Fprintf(&sb, "tc%d(X,Y) :- e%d(X,Y).\n", i, i)
		fmt.Fprintf(&sb, "tc%d(X,Y) :- e%d(X,Z), tc%d(Z,Y).\n", i, i, i)
		goals = append(goals, fmt.Sprintf("tc%d(X,Y)", i))
	}
	return sb.String(), goals
}

func parseGoalTerms(t *testing.T, srcs []string) []term.Term {
	t.Helper()
	out := make([]term.Term, len(srcs))
	for i, s := range srcs {
		g, _, err := prolog.ParseTerm(s)
		if err != nil {
			t.Fatalf("goal %q: %v", s, err)
		}
		out[i] = g
	}
	return out
}

// answerLog snapshots the machine's tables in AnswerRef coordinate
// order (subgoal creation order, answer insertion order) together with
// each answer's recorded justification — the byte-identity surface the
// parallel merge must reproduce.
func answerLog(m *Machine) string {
	var sb strings.Builder
	m.EachAnswer(func(ref AnswerRef, pred string) {
		ans, _ := m.AnswerAt(ref)
		fmt.Fprintf(&sb, "%d/%d %s %s", ref.Subgoal, ref.Answer, pred, term.Canonical(ans))
		if j, ok := m.Justification(ref); ok {
			fmt.Fprintf(&sb, " just=%d%v trunc=%v", j.ClauseNth, j.Premises, j.Truncated)
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}

// normStats zeroes the wall-clock field so runs compare structurally.
func normStats(s Stats) Stats {
	s.CompileNanos = 0
	return s
}

// runSolveAll loads src into a fresh machine and runs SolveAll over
// goalSrcs, returning the machine.
func runSolveAll(t *testing.T, src string, goalSrcs []string, cfg func(*Machine)) *Machine {
	t.Helper()
	m := New()
	cfg(m)
	mustConsult(t, m, src)
	if err := m.SolveAll(parseGoalTerms(t, goalSrcs)); err != nil {
		t.Fatalf("SolveAll: %v", err)
	}
	return m
}

func TestSolveAllParallelMatchesSequential(t *testing.T) {
	src, goalSrcs := clusterSrc(6)
	// Subtest names keep the historical mode numbers (mode1 was the
	// first-argument-indexed interpreter, since removed) so that each
	// backend's case keeps a stable name.
	for _, mc := range []struct {
		name string
		mode LoadMode
	}{{"mode0", LoadDynamic}, {"mode2", ModeClosure}} {
		mode := mc.mode
		for _, tables := range []TablesImpl{TablesTrie, TablesStringMap} {
			t.Run(fmt.Sprintf("%s_%s", mc.name, tables), func(t *testing.T) {
				seq := runSolveAll(t, src, goalSrcs, func(m *Machine) {
					m.Mode, m.Tables, m.Provenance = mode, tables, true
				})
				par := runSolveAll(t, src, goalSrcs, func(m *Machine) {
					m.Mode, m.Tables, m.Provenance = mode, tables, true
					m.Limits.MaxParallel = 4
				})
				if got, want := par.ParallelStats().Runs, 1; got != want {
					t.Fatalf("parallel runs = %d, want %d (stats %+v)", got, want, par.ParallelStats())
				}
				if got, want := par.ParallelStats().Groups, 6; got != want {
					t.Errorf("groups = %d, want %d", got, want)
				}
				if got, want := normStats(par.Stats()), normStats(seq.Stats()); got != want {
					t.Errorf("stats diverge:\npar %+v\nseq %+v", got, want)
				}
				if got, want := answerLog(par), answerLog(seq); got != want {
					t.Errorf("answer/provenance log diverges:\npar:\n%s\nseq:\n%s", got, want)
				}
				if got, want := CanonicalDump(par), CanonicalDump(seq); got != want {
					t.Errorf("table dump diverges:\npar:\n%s\nseq:\n%s", got, want)
				}
			})
		}
	}
}

// TestSolveAllMergedTablesQueryable: after a parallel run the parent
// machine's call-table index must resolve the merged subgoals, so later
// queries replay answers instead of re-deriving them.
func TestSolveAllMergedTablesQueryable(t *testing.T) {
	src, goalSrcs := clusterSrc(3)
	for _, tables := range []TablesImpl{TablesTrie, TablesStringMap} {
		t.Run(tables.String(), func(t *testing.T) {
			m := runSolveAll(t, src, goalSrcs, func(m *Machine) {
				m.Tables = tables
				m.Limits.MaxParallel = 3
			})
			before := m.Stats().Subgoals
			sols, err := m.Query("tc0(X,Y)")
			if err != nil {
				t.Fatalf("query after merge: %v", err)
			}
			if len(sols) == 0 {
				t.Fatal("no answers replayed from merged table")
			}
			if got := m.Stats().Subgoals; got != before {
				t.Errorf("query after merge created %d new subgoals; table index broken", got-before)
			}
		})
	}
}

func TestSolveAllGrouping(t *testing.T) {
	src, goalSrcs := clusterSrc(2)
	// A third goal that touches both clusters must fuse them.
	src += "both(X,Y) :- tc0(X,Y), tc1(X,Y).\n"
	m := New()
	mustConsult(t, m, src)
	goals := parseGoalTerms(t, append(goalSrcs, "both(X,Y)"))
	groups, ok := m.planGroups(goals)
	if !ok {
		t.Fatal("planGroups: unexpectedly unsafe")
	}
	if len(groups) != 1 {
		t.Fatalf("groups = %v, want one fused group", groups)
	}
	// Without the bridge goal the clusters are independent.
	groups, ok = m.planGroups(goals[:2])
	if !ok || len(groups) != 2 {
		t.Fatalf("groups = %v ok=%v, want two singleton groups", groups, ok)
	}
}

func TestSolveAllUnsafeFallsBack(t *testing.T) {
	cases := []struct {
		name, src, goal string
	}{
		{"assert", ":- table p/1.\np(a).\np(b) :- fail, assert(q(b)).\n", "p(X)"},
		{"io", ":- table p/1.\np(a).\np(b) :- fail, write(a).\n", "p(X)"},
		{"vargoal", ":- table p/1.\np(a) :- G = s(c), call(G).\ns(c).\n", "p(X)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			m.Limits.MaxParallel = 4
			mustConsult(t, m, tc.src+":- table r/1.\nr(c).\n")
			goals := parseGoalTerms(t, []string{tc.goal, "r(X)"})
			if _, ok := m.planGroups(goals); ok {
				t.Fatalf("planGroups accepted unsafe program %q", tc.name)
			}
			// SolveAll must still evaluate correctly via the fallback.
			if err := m.SolveAll(goals); err != nil {
				t.Fatalf("SolveAll fallback: %v", err)
			}
			if m.ParallelStats().SeqFallbacks != 1 {
				t.Errorf("SeqFallbacks = %d, want 1", m.ParallelStats().SeqFallbacks)
			}
		})
	}
}

func TestSolveAllSharedVarFallsBack(t *testing.T) {
	src, _ := clusterSrc(2)
	m := New()
	m.Limits.MaxParallel = 4
	mustConsult(t, m, src)
	goals := parseGoalTerms(t, []string{"tc0(X,Y)", "tc1(X,Y)"})
	// Splice one goal's variables into the other: goals sharing an
	// unbound variable cell must not run concurrently.
	g0 := goals[0].(*term.Compound)
	g1 := goals[1].(*term.Compound)
	g1.Args[0] = g0.Args[0]
	if _, ok := m.planGroups(goals); ok {
		t.Fatal("planGroups accepted goals sharing variables")
	}
}

// TestSolveAllErrorEarliestGoal: a failing parallel run must blame the
// earliest failing goal (as a sequential run would), wrap the sentinel,
// merge nothing, and leave the machine reusable.
func TestSolveAllErrorEarliestGoal(t *testing.T) {
	var sb strings.Builder
	// Clusters 0 and 2 diverge past the answer limit; cluster 1 is fine.
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, ":- table n%d/1.\n", i)
		fmt.Fprintf(&sb, "n%d(z).\n", i)
		if i != 1 {
			fmt.Fprintf(&sb, "n%d(s(X)) :- n%d(X).\n", i, i)
		}
	}
	m := New()
	m.Limits.MaxParallel = 3
	m.Limits.MaxAnswers = 50
	mustConsult(t, m, sb.String())
	goals := parseGoalTerms(t, []string{"n0(X)", "n1(X)", "n2(X)"})
	err := m.SolveAll(goals)
	if !errors.Is(err, ErrAnswerLimit) {
		t.Fatalf("want ErrAnswerLimit, got %v", err)
	}
	var ge *GoalError
	if !errors.As(err, &ge) || ge.Index != 0 {
		t.Fatalf("want GoalError{Index: 0}, got %#v", err)
	}
	if got := m.Stats().Subgoals; got != 0 {
		t.Errorf("failed run merged %d subgoals; want 0", got)
	}
	// The machine stays usable: lift the limit and re-run the safe goal.
	m.ResetTables()
	m.Limits.MaxAnswers = 0
	if err := m.SolveAll(goals[1:2]); err != nil {
		t.Fatalf("reuse after failed parallel run: %v", err)
	}
}

// TestSolveAllReuseAfterResetTables: parallel runs must be repeatable
// on one machine across ResetTables, producing identical tables.
func TestSolveAllReuseAfterResetTables(t *testing.T) {
	src, goalSrcs := clusterSrc(4)
	m := New()
	m.Mode = ModeClosure
	m.Limits.MaxParallel = 4
	mustConsult(t, m, src)
	goals := parseGoalTerms(t, goalSrcs)
	var first string
	for round := 0; round < 3; round++ {
		if err := m.SolveAll(goals); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dump := CanonicalDump(m)
		if round == 0 {
			first = dump
		} else if dump != first {
			t.Fatalf("round %d dump diverges from round 0:\n%s\nvs\n%s", round, dump, first)
		}
		m.ResetTables()
	}
}

// TestParallelRaceStress runs the same program at MaxParallel 1, 2 and
// 8 on concurrent machines, mixing clean runs with cancellation and
// limit aborts, and requires sentinel-only errors and zero leaked
// goroutines. Run under -race this exercises the fork/merge sharding.
func TestParallelRaceStress(t *testing.T) {
	defer testutil.AssertNoLeaks(t, testutil.Goroutines())
	src, goalSrcs := clusterSrc(8)
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, 3*iters)
	for _, par := range []int{1, 2, 8} {
		for i := 0; i < iters; i++ {
			wg.Add(1)
			go func(par, i int) {
				defer wg.Done()
				m := New()
				m.Mode = ModeClosure
				m.Limits.MaxParallel = par
				if err := m.Consult(src); err != nil {
					errc <- err
					return
				}
				goals := make([]term.Term, 0, len(goalSrcs))
				for _, gs := range goalSrcs {
					g, _, err := prolog.ParseTerm(gs)
					if err != nil {
						errc <- err
						return
					}
					goals = append(goals, g)
				}
				switch i % 3 {
				case 0: // clean run, then reuse after ResetTables
					for round := 0; round < 2; round++ {
						if err := m.SolveAll(goals); err != nil {
							errc <- fmt.Errorf("clean run: %w", err)
							return
						}
						m.ResetTables()
					}
				case 1: // limit abort: sentinel only
					m.Limits.MaxAnswers = 3
					if err := m.SolveAll(goals); err != nil && !errors.Is(err, ErrAnswerLimit) {
						errc <- fmt.Errorf("limit abort: non-sentinel %w", err)
					}
				case 2: // cancellation mid-run: sentinel only
					ctx, cancel := context.WithCancel(context.Background())
					m.SetContext(ctx)
					go func() {
						time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
						cancel()
					}()
					err := m.SolveAll(goals)
					cancel()
					if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrDeadline) {
						errc <- fmt.Errorf("cancel abort: non-sentinel %w", err)
					}
				}
			}(par, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestParallelDeadline: a context deadline expiring mid-parallel-run
// surfaces ErrDeadline and leaves no workers behind.
func TestParallelDeadline(t *testing.T) {
	defer testutil.AssertNoLeaks(t, testutil.Goroutines())
	var sb strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, ":- table n%d/1.\nn%d(z).\nn%d(s(X)) :- n%d(X).\n", i, i, i, i)
	}
	m := New()
	m.Limits.MaxParallel = 4
	mustConsult(t, m, sb.String())
	goals := parseGoalTerms(t, []string{"n0(X)", "n1(X)", "n2(X)", "n3(X)"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	m.SetContext(ctx)
	err := m.SolveAll(goals)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}
