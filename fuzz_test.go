package xlp

import (
	"context"
	"strings"
	"testing"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/randgen"
	"xlp/internal/term"
)

// FuzzAnalyzeGroundness drives the whole analysis pipeline — reader,
// transform, tabled engine, collection — on arbitrary program text
// under tight resource limits. Malformed input must fail with an error,
// never a panic, and a successful analysis must be internally
// consistent (per-predicate vectors sized to the arity).
func FuzzAnalyzeGroundness(f *testing.F) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, shape := range randgen.Shapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			if g.Lang == randgen.LangProlog {
				f.Add(g.Source)
			}
		}
	}
	f.Add(":- table p/1.\np(a).\np(f(X)) :- p(X).")
	limits := Limits{MaxDepth: 10_000, MaxAnswers: 20_000, MaxSubgoals: 2_000}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := AnalyzeGroundness(src, GroundnessOptions{Engine: engine.Config{Limits: limits}})
		if err != nil {
			return
		}
		for ind, r := range a.Results {
			if len(r.GroundArgs) != r.Arity {
				t.Fatalf("%s: %d ground-arg entries for arity %d", ind, len(r.GroundArgs), r.Arity)
			}
			if r.Success == nil && r.Reachable && r.AnswerCount > 0 {
				t.Fatalf("%s: reachable with %d answers but nil success formula", ind, r.AnswerCount)
			}
		}
		// The linter shares the reader; it must also accept the program.
		Lint(src, LintOptions{})
	})
}

// FuzzCompileSolve holds the closure-compiled clause backend
// (engine.ModeClosure, internal/compile) against the interpreter on
// arbitrary program text: both modes must derive the same solution
// sequence for an open call to every defined predicate, duplicates and
// derivation order included. Runs where either mode hits a resource
// limit are skipped — inline control steps (true/!/fail) are not
// depth-counted in closure mode, so limit errors can fire
// asymmetrically near the boundary.
func FuzzCompileSolve(f *testing.F) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, shape := range randgen.PrologShapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			f.Add(g.Source)
		}
	}
	// Cut, if-then-else, negation, and write-mode structure building —
	// the specialization paths randgen rarely reaches.
	for _, s := range compileSolveHandSeeds {
		f.Add(s)
	}
	limits := engine.Limits{MaxDepth: 1_000, MaxAnswers: 1_000, MaxSubgoals: 300}
	const maxSolutions = 128
	f.Fuzz(func(t *testing.T, src string) {
		run := func(mode engine.LoadMode) (map[string]string, error) {
			// The deadline bounds pathological-but-finite search spaces;
			// a run that exceeds it errors and the input is skipped, in
			// either mode.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			m := engine.New()
			m.Mode = mode
			m.Limits = limits
			m.SetContext(ctx)
			if err := m.Consult(src); err != nil {
				return nil, err
			}
			out := map[string]string{}
			for _, ind := range m.Predicates() {
				goal := openCall(ind)
				var sols []string
				err := m.Solve(goal, func() bool {
					sols = append(sols, term.Canonical(term.Resolve(goal)))
					return len(sols) >= maxSolutions
				})
				if err != nil {
					return nil, err
				}
				out[ind] = strings.Join(sols, " ; ")
			}
			return out, nil
		}
		interp, errI := run(engine.LoadDynamic)
		closure, errC := run(engine.ModeClosure)
		if errI != nil || errC != nil {
			return
		}
		for ind, want := range interp {
			if got := closure[ind]; got != want {
				t.Fatalf("%s: closure solutions diverge\ninterp:  %s\nclosure: %s", ind, want, got)
			}
		}
		if len(closure) != len(interp) {
			t.Fatalf("predicate sets diverge: interp %d, closure %d", len(interp), len(closure))
		}
	})
}

// FuzzParallelSolve holds the parallel goal-group evaluator
// (Machine.SolveAll under Limits.MaxParallel) against the sequential
// one on arbitrary program text: the merged tables — subgoal order,
// answer order, canonical answer terms, completion marks — and the
// evaluation counters must be byte-identical. Runs where either side
// errors are skipped: resource limits are charged per shard in parallel
// mode, so limit errors can fire asymmetrically near the boundary.
func FuzzParallelSolve(f *testing.F) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, shape := range randgen.PrologShapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			f.Add(g.Source)
		}
	}
	// Multi-cluster programs — the shapes where grouping actually splits
	// — plus fallback triggers (shared vars via negation, builtins).
	for _, s := range parallelSolveHandSeeds {
		f.Add(s)
	}
	limits := engine.Limits{MaxDepth: 1_000, MaxAnswers: 1_000, MaxSubgoals: 300}
	f.Fuzz(func(t *testing.T, src string) {
		run := func(par int) (*engine.Machine, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			m := engine.New()
			m.Limits = limits
			m.Limits.MaxParallel = par
			m.SetContext(ctx)
			if err := m.Consult(src); err != nil {
				return nil, err
			}
			var goals []term.Term
			for _, ind := range m.Predicates() {
				goals = append(goals, openCall(ind))
			}
			if len(goals) == 0 {
				return m, nil
			}
			return m, m.SolveAll(goals)
		}
		seq, errS := run(0)
		par, errP := run(4)
		if errS != nil || errP != nil {
			return
		}
		if a, b := canonTables(seq), canonTables(par); a != b {
			t.Fatalf("parallel tables diverge\nseq:\n%s\npar:\n%s", a, b)
		}
		sa, sb := seq.Stats(), par.Stats()
		sa.CompileNanos, sb.CompileNanos = 0, 0
		if sa != sb {
			t.Fatalf("parallel stats diverge\nseq: %+v\npar: %+v", sa, sb)
		}
	})
}

// canonTables renders every table in creation order with canonical
// (run-independent) variable numbering.
func canonTables(m *engine.Machine) string {
	var sb strings.Builder
	for _, d := range m.DumpTables("") {
		sb.WriteString(term.Canonical(d.Call))
		if d.Complete {
			sb.WriteString(" complete")
		}
		sb.WriteByte('\n')
		for _, a := range d.Answers {
			sb.WriteString("  ")
			sb.WriteString(term.Canonical(a))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// parallelSolveHandSeeds are handwritten fuzz seeds targeting the group
// planner's corners: disjoint tabled cones, cones joined through shared
// base facts, negation, and sequential-fallback triggers.
var parallelSolveHandSeeds = []string{
	":- table t0/2.\n:- table t1/2.\ne0(a,b). e0(b,c).\nt0(X,Y) :- e0(X,Y).\nt0(X,Y) :- e0(X,Z), t0(Z,Y).\ne1(u,v). e1(v,w).\nt1(X,Y) :- e1(X,Y).\nt1(X,Y) :- e1(X,Z), t1(Z,Y).",
	":- table a/1.\n:- table b/1.\nf(1). f(2).\na(X) :- f(X).\nb(X) :- f(X), \\+ a(X).",
	":- table p/1.\n:- table q/1.\np(z). p(s(X)) :- p(X), X = z.\nq(X) :- p(X) ; p(s(z)).",
	":- table even/1.\n:- table odd/1.\neven(z).\neven(s(X)) :- odd(X).\nodd(s(X)) :- even(X).\n:- table len/2.\nlen([], z).\nlen([_|T], s(N)) :- len(T, N).",
	"io(X) :- write(X), nl.\n:- table t/1.\nt(a). t(b).",
}

// openCall builds "name(V1, ..., Vn)" from an indicator "name/n".
func openCall(ind string) term.Term {
	i := strings.LastIndexByte(ind, '/')
	name := ind[:i]
	arity := 0
	for _, c := range ind[i+1:] {
		arity = arity*10 + int(c-'0')
	}
	args := make([]term.Term, arity)
	for j := range args {
		args[j] = term.NewVar("_")
	}
	return term.NewCompound(name, args...)
}

// compileSolveHandSeeds are handwritten fuzz seeds targeting the
// compiled backend's control-flow corners.
var compileSolveHandSeeds = []string{
	"p(1). p(2). p(3).\nonce_p(X) :- p(X), !.\nd(X) :- (p(X), ! ; p(X)).",
	"p(1). p(2).\nite(X) :- (p(X) -> X = 1 ; X = 99).\nneg(X) :- p(X), \\+ X = 1.",
	"app([], Y, Y).\napp([H|T], Y, [H|Z]) :- app(T, Y, Z).\nmk(L) :- app(X, Y, [a,b,c]), app(Y, X, L).",
	":- table path/2.\nedge(a,b). edge(b,c). edge(c,a).\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).",
	"f(g(X, h(Y)), X, Y).\nq(A, B) :- f(Z, A, B), f(Z, B, A).",
	"n(z). n(s(X)) :- n(X), X = z.\nnn(X) :- n(X) ; n(s(s(z))).",
}
