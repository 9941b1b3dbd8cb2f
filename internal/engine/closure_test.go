package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xlp/internal/term"
)

// queryAll runs goalSrc on a fresh machine in the given mode and
// returns the canonical answer strings in derivation order.
func queryAll(t *testing.T, mode LoadMode, src, goalSrc string) []string {
	t.Helper()
	m := New()
	m.Mode = mode
	mustConsult(t, m, src)
	got, err := m.Query(goalSrc)
	if err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	out := make([]string, len(got))
	for i, g := range got {
		out[i] = term.Canonical(g)
	}
	return out
}

// expectSameAnswers checks that both load modes derive the same answers
// in the same order.
func expectSameAnswers(t *testing.T, src, goalSrc string) {
	t.Helper()
	want := queryAll(t, LoadDynamic, src, goalSrc)
	got := queryAll(t, ModeClosure, src, goalSrc)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("closure answers %v, interpreter answers %v (goal %s)",
			got, want, goalSrc)
	}
}

// TestClosureSeesAssertaAndRetract: asserta and retract change a
// predicate's clauses, so closure mode must drop the cached compiled
// code just as Assert does.
func TestClosureSeesAssertaAndRetract(t *testing.T) {
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		m := New()
		m.Mode = mode
		mustConsult(t, m, "p(1).\nfront :- asserta(p(0)).\ndrop :- retract(p(1)).\n")
		queryStrings(t, m, "front")
		eqStrings(t, queryStrings(t, m, "p(X)"), []string{"p(0)", "p(1)"})
		queryStrings(t, m, "drop")
		eqStrings(t, queryStrings(t, m, "p(X)"), []string{"p(0)"})
	}
}

func TestClosureCutCommitsToClause(t *testing.T) {
	src := `
p(1). p(2). p(3).
once_p(X) :- p(X), !.
guard(X) :- p(X), X = 2, !, p(_).
after_cut(X, Y) :- p(X), !, p(Y).
`
	expectSameAnswers(t, src, "once_p(X)")
	expectSameAnswers(t, src, "guard(X)")
	// Cut commits to the first p(X) but Y still backtracks freely.
	expectSameAnswers(t, src, "after_cut(X, Y)")
}

func TestClosureCutInDisjunctionAndITE(t *testing.T) {
	src := `
p(1). p(2).
d(X) :- (p(X), ! ; p(X)).
ite(X) :- (p(X) -> X = 1 ; X = 99).
neg(X) :- p(X), \+ X = 1.
`
	// Cut inside a disjunction cuts the enclosing clause.
	expectSameAnswers(t, src, "d(X)")
	expectSameAnswers(t, src, "ite(X)")
	expectSameAnswers(t, src, "neg(X)")
}

func TestClosureCutBarrierRestoresAcrossBacktracking(t *testing.T) {
	// outer backtracks across inner clauses that each fire a cut; the
	// barrier is per-activation, so inner's cut must not leak into
	// outer's choice points.
	src := `
p(1). p(2). p(3).
inner(X) :- p(X), !.
inner(99).
outer(X, Y) :- p(X), inner(Y).
`
	expectSameAnswers(t, src, "outer(X, Y)")
}

func TestClosureCutInTabledBodyThrows(t *testing.T) {
	src := `
:- table tp/1.
p(1).
tp(X) :- p(X), !.
`
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		m := New()
		m.Mode = mode
		mustConsult(t, m, src)
		err := m.Solve(term.NewCompound("tp", term.NewVar("X")), func() bool { return false })
		if err == nil || !strings.Contains(err.Error(), "cut in the body of a tabled predicate") {
			t.Fatalf("mode %d: err = %v, want cut-in-tabled-body error", mode, err)
		}
	}
}

func TestClosureTrailBalancedAfterSolve(t *testing.T) {
	m := New()
	m.Mode = ModeClosure
	mustConsult(t, m, `
p(1). p(2).
q(X, Y) :- p(X), p(Y), X = Y, !.
`)
	if err := m.Solve(term.NewCompound("q", term.NewVar("A"), term.NewVar("B")),
		func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	if n := m.trail.Len(); n != 0 {
		t.Fatalf("trail holds %d bindings after Solve, want 0", n)
	}
	// The machine stays reusable: same query, same first answer.
	got, err := m.Query("q(A, B)")
	if err != nil || len(got) != 1 || term.Canonical(got[0]) != "q(1,1)" {
		t.Fatalf("requery got %v (err %v), want [q(1,1)]", got, err)
	}
}

func TestClosureDepthLimitLeavesMachineReusable(t *testing.T) {
	m := New()
	m.Mode = ModeClosure
	m.Limits.MaxDepth = 50
	mustConsult(t, m, "loop :- loop.\nok(1).")
	err := m.Solve(term.Atom("loop"), func() bool { return false })
	if !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("err = %v, want ErrDepthLimit", err)
	}
	if n := m.trail.Len(); n != 0 {
		t.Fatalf("trail holds %d bindings after aborted solve", n)
	}
	got, err := m.Query("ok(X)")
	if err != nil || len(got) != 1 {
		t.Fatalf("machine not reusable after depth abort: %v (err %v)", got, err)
	}
}

func TestClosureAnswerLimitAbortsCleanly(t *testing.T) {
	m := New()
	m.Mode = ModeClosure
	m.Limits.MaxAnswers = 5
	mustConsult(t, m, `
:- table count/1.
num(1). num(2). num(3). num(4). num(5). num(6). num(7). num(8).
count(X) :- num(X).
`)
	err := m.Solve(term.NewCompound("count", term.NewVar("X")), func() bool { return false })
	if !errors.Is(err, ErrAnswerLimit) {
		t.Fatalf("err = %v, want ErrAnswerLimit", err)
	}
	// After ResetTables with a higher limit the full answer set derives.
	m.ResetTables()
	m.Limits.MaxAnswers = 0
	got, err := m.Query("count(X)")
	if err != nil || len(got) != 8 {
		t.Fatalf("after ResetTables: %d answers (err %v), want 8", len(got), err)
	}
}

func TestClosureCancelMidContinuation(t *testing.T) {
	m := New()
	m.Mode = ModeClosure
	mustConsult(t, m, divergentSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx)
	err := m.Solve(term.Atom("slow"), func() bool { return false })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Clearing the context and resetting tables restores the machine.
	m.SetContext(nil)
	m.ResetTables()
	got, err := m.Query("p(X)")
	if err != nil || len(got) != 4 {
		t.Fatalf("machine not reusable after cancel: %v (err %v)", got, err)
	}
}

func TestClosureCompileCacheReusedAcrossReset(t *testing.T) {
	m := New()
	m.Mode = ModeClosure
	mustConsult(t, m, `
:- table p/1.
e(1). e(2).
p(X) :- e(X).
`)
	if n := m.Stats().PredsCompiled; n != 2 {
		t.Fatalf("PredsCompiled after consult = %d, want 2 (e/1, p/1)", n)
	}
	if m.Stats().CompileNanos <= 0 {
		t.Fatal("CompileNanos not accounted")
	}
	if _, err := m.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	m.ResetTables() // drops stats, keeps compiled code
	if _, err := m.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().PredsCompiled; n != 0 {
		t.Fatalf("recompiled %d predicates on a warm machine, want 0", n)
	}
	// Assert invalidates only the touched predicate.
	if err := m.Consult("e(3)."); err != nil {
		t.Fatal(err)
	}
	got, err := m.Query("e(X)")
	if err != nil || len(got) != 3 {
		t.Fatalf("after assert: %v (err %v), want 3 answers", got, err)
	}
	if n := m.Stats().PredsCompiled; n != 1 {
		t.Fatalf("PredsCompiled after assert = %d, want 1 (e/1 only)", n)
	}
}

func TestClosureStructuredHeadsAcrossModes(t *testing.T) {
	src := `
app([], Y, Y).
app([H|T], Y, [H|Z]) :- app(T, Y, Z).
rev([], []).
rev([H|T], R) :- rev(T, RT), app(RT, [H], R).
pair(f(X, g(Y)), X, Y).
`
	expectSameAnswers(t, src, "app(X, Y, [1,2,3])")
	expectSameAnswers(t, src, "rev([1,2,3,4], R)")
	expectSameAnswers(t, src, "pair(P, a, b)")
	expectSameAnswers(t, src, "pair(f(u, g(w)), X, Y)")
}
