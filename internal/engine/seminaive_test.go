package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xlp/internal/compile"
	"xlp/internal/term"
)

// snEdges is a graph with two cycles, so the closures below need
// several producer passes to reach their fixpoint.
const snEdges = "e(1,2). e(2,3). e(3,4). e(4,1). e(4,5). e(5,6). e(6,2).\n"

var snModes = []struct {
	name string
	mode LoadMode
}{{"interp", LoadDynamic}, {"closure", ModeClosure}}

// snRun consults src, solves goal and returns the machine.
func snRun(t *testing.T, src, goal string, mode LoadMode) *Machine {
	t.Helper()
	m := New()
	m.Mode = mode
	m.Out = &bytes.Buffer{}
	if err := m.Consult(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(goal); err != nil {
		t.Fatal(err)
	}
	return m
}

// CanonicalDump renders every table with canonically numbered
// variables (term.Canonical), so it does not depend on how many fresh
// variables the evaluation created. Exported for the engine_test
// package's golden trajectory.
func CanonicalDump(m *Machine) string {
	var sb strings.Builder
	for _, d := range m.DumpTables("") {
		fmt.Fprintf(&sb, "%s complete=%v\n", term.Canonical(d.Call), d.Complete)
		for _, a := range d.Answers {
			fmt.Fprintf(&sb, "  %s\n", term.Canonical(a))
		}
	}
	return sb.String()
}

// TestSemiNaivePrunesRecursion: a left-recursive closure re-reads its
// own table on every pass, and a mutually recursive one its partner's.
// With the recursive call as the pruning point, re-passes join only the
// new answers, so resolutions fall while tables, answer order, passes
// and runs stay those of the naive evaluation. The naive reference is
// the same program with the recursive call wrapped in call/1, which has
// no pruning point.
func TestSemiNaivePrunesRecursion(t *testing.T) {
	fixtures := []struct{ name, pruned, naive string }{
		{"left",
			":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y).\n",
			":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- call(r(X,Z)), e(Z,Y).\n"},
		// Mutual recursion through a second table, with the pruning
		// point inside a disjunction.
		{"mutual",
			":- table r/2, s/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- s(X,Z), ( e(Z,Y) ; r(Z,W), e(W,Y) ).\ns(X,Y) :- r(X,Y).\ns(X,Y) :- e(Y,X).\n",
			":- table r/2, s/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- s(X,Z), ( e(Z,Y) ; call(r(Z,W)), e(W,Y) ).\ns(X,Y) :- r(X,Y).\ns(X,Y) :- e(Y,X).\n"},
	}
	for _, md := range snModes {
		for _, fx := range fixtures {
			for _, goal := range []string{"r(X,Y)", "r(1,Y)"} {
				t.Run(md.name+"/"+fx.name+"/"+goal, func(t *testing.T) {
					got := snRun(t, fx.pruned+snEdges, goal, md.mode)
					ref := snRun(t, fx.naive+snEdges, goal, md.mode)
					if g, r := CanonicalDump(got), CanonicalDump(ref); g != r {
						t.Fatalf("tables differ:\n%s\nnaive:\n%s", g, r)
					}
					gs, rs := got.Stats(), ref.Stats()
					if gs.Resolutions >= rs.Resolutions {
						t.Errorf("resolutions %d, naive %d: no pruning", gs.Resolutions, rs.Resolutions)
					}
					gs.Resolutions, rs.Resolutions = 0, 0
					gs.BuiltinCalls, rs.BuiltinCalls = 0, 0
					gs.CompileNanos, rs.CompileNanos = 0, 0
					if gs != rs {
						t.Errorf("stats differ beyond resolutions:\n%+v\nnaive:\n%+v", gs, rs)
					}
					if gs.ProducerPasses < 2 {
						t.Errorf("only %d passes: the fixture does not exercise re-passes", gs.ProducerPasses)
					}
				})
			}
		}
	}
}

// snIneligible are clauses outside the prunable fragment: they call
// goals or have side effects, directly or through a helper. Each must
// evaluate exactly as before the semi-naive rule existed: the counts
// below were recorded with the naive engine.
var snIneligible = []struct {
	name, src string
	// per backend (interp, closure): resolutions, builtin calls,
	// asserted seen/1 clauses, write/1 output
	want [2]snEffects
}{
	{"findall", ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y), findall(W, e(Y,W), _).\n",
		[2]snEffects{{1110, 84, 0, ""}, {198, 84, 0, ""}}},
	{"negation", ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y), \\+ Y = 9.\n",
		[2]snEffects{{522, 84, 0, ""}, {102, 84, 0, ""}}},
	{"ite", ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), ( Z > 3 -> e(Z,Y) ; e(Z,Y) ).\n",
		[2]snEffects{{522, 72, 0, ""}, {102, 72, 0, ""}}},
	{"assert", ":- table r/2.\n:- dynamic seen/1.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y), assertz(seen(Y)).\n",
		[2]snEffects{{522, 84, 84, ""}, {102, 84, 84, ""}}},
	{"write", ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y), write(Y).\n",
		[2]snEffects{{522, 84, 0, snWritten}, {102, 84, 0, snWritten}}},
	{"helpercut", ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), step(Z,Y).\nstep(Z,Y) :- e(Z,Y), !.\n",
		[2]snEffects{{232, 0, 0, ""}, {126, 0, 0, ""}}},
}

const snWritten = "341526234152632341526324415263241515262262341526234152632341526324415263241515262262"

type snEffects struct {
	resolutions, builtins, asserted int
	written                         string
}

func TestSemiNaiveSkipsIneligible(t *testing.T) {
	for i, md := range snModes {
		for _, p := range snIneligible {
			t.Run(md.name+"/"+p.name, func(t *testing.T) {
				m := snRun(t, p.src+snEdges, "r(X,Y)", md.mode)
				for _, cl := range m.Pred("r/2").Clauses[1:] {
					if cl.sn.Body >= 0 {
						t.Errorf("clause %v got pruning point %+v", cl.Head, cl.sn)
					}
				}
				s := m.Stats()
				got := snEffects{s.Resolutions, s.BuiltinCalls, 0, m.Out.(*bytes.Buffer).String()}
				if m.HasPred("seen/1") {
					got.asserted = len(m.Pred("seen/1").Clauses)
				}
				if got != p.want[i] {
					t.Errorf("effects %+v, want %+v (naive evaluation)", got, p.want[i])
				}
			})
		}
	}
}

// TestSemiNaiveBackendsAgree: both clause backends give identical
// tables on pruned and unpruned programs alike.
func TestSemiNaiveBackendsAgree(t *testing.T) {
	srcs := []string{
		":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y).\n",
		":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), r(Z,Y).\n",
		":- table r/2, s/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- s(X,Z), ( e(Z,Y) ; r(Z,W), e(W,Y) ).\ns(X,Y) :- r(X,Y).\ns(X,Y) :- e(Y,X).\n",
	}
	for _, p := range snIneligible {
		srcs = append(srcs, p.src)
	}
	for _, src := range srcs {
		for _, goal := range []string{"r(X,Y)", "r(2,Y)"} {
			a := snRun(t, src+snEdges, goal, LoadDynamic)
			b := snRun(t, src+snEdges, goal, ModeClosure)
			if da, db := CanonicalDump(a), CanonicalDump(b); da != db {
				t.Errorf("%s ?- %s: interp and closure tables differ:\n%s\nclosure:\n%s", src, goal, da, db)
			}
		}
	}
}

// TestSemiNaiveMarks pins where the pruning point goes.
func TestSemiNaiveMarks(t *testing.T) {
	const prelude = ":- table t/1, u/1.\nt(1).\nu(1).\nh(X) :- X = 1.\nhr(X) :- t(X).\n"
	cases := []struct {
		body string
		want compile.Mark
	}{
		{"t(X), u(Y)", compile.Mark{Body: 1}},
		{"u(Y), t(X), X = Y", compile.Mark{Body: 1}},
		{"t(X), h(X)", compile.Mark{Body: 0}}, // non-reading helper after the call
		{"t(X), hr(X)", compile.NoMark},       // last reader is a helper
		{"t(X), ( u(X) ; t(X) )", compile.Mark{Body: 1, Path: []uint8{1}}},
		{"t(X), ( u(X), h(X) ; X = 2 )", compile.Mark{Body: 1, Path: []uint8{0, 0}}},
		{"t(X), ( u(X) -> true ; true )", compile.NoMark}, // if-then-else
		{"t(X), \\+ u(X)", compile.NoMark},
		{"t(X), !", compile.NoMark},
		{"X = 1, Y = 2", compile.NoMark}, // reads no table
		{"t(X), p", compile.NoMark},      // atom call: no identity to match
		{"t(X), p0", compile.NoMark},     // helper reaching a tabled call
	}
	for _, c := range cases {
		m := New()
		if err := m.Consult(prelude + ":- table p/0, q/2.\np0 :- p.\np.\nq(X, Y) :- " + c.body + ".\n"); err != nil {
			t.Fatal(err)
		}
		m.ensureMarks()
		got := m.Pred("q/2").Clauses[0].sn
		if got.Body != c.want.Body || fmt.Sprint(got.Path) != fmt.Sprint(c.want.Path) {
			t.Errorf("q :- %s: mark %+v, want %+v", c.body, got, c.want)
		}
	}
}

// TestSemiNaiveProgramChange: an assert between two solves drops the
// marks, and a clause that becomes impure through a helper is no
// longer pruned.
func TestSemiNaiveProgramChange(t *testing.T) {
	m := New()
	if err := m.Consult(":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), step(Z,Y).\nstep(Z,Y) :- e(Z,Y).\n" + snEdges); err != nil {
		t.Fatal(err)
	}
	m.ensureMarks()
	if m.Pred("r/2").Clauses[1].sn.Body != 0 {
		t.Fatalf("pure helper: clause not marked: %+v", m.Pred("r/2").Clauses[1].sn)
	}
	if err := m.Assert(term.Comp(":-", term.Comp("step", term.NewVar("A"), term.NewVar("B")),
		term.Comp("write", term.Atom("x")))); err != nil {
		t.Fatal(err)
	}
	if m.snFresh {
		t.Fatal("assert kept the marks")
	}
	m.ensureMarks()
	if m.Pred("r/2").Clauses[1].sn.Body >= 0 {
		t.Fatalf("helper with write: clause still marked: %+v", m.Pred("r/2").Clauses[1].sn)
	}
}

// TestSemiNaiveAssertMidEvaluation: a clause that asserts during the
// fixpoint gives a pure helper a new solution. The re-passes after the
// change must not treat answers as old against the old program: the
// tables equal those of the naive evaluation.
func TestSemiNaiveAssertMidEvaluation(t *testing.T) {
	const prog = ":- table r/2.\nr(X,Y) :- e(X,Y).\nr(X,Y) :- %s, hop(Z,Y).\n" +
		"r(X,Y) :- r(X,Y), Y == 3, \\+ extra(3,7), assertz(extra(3,7)), fail.\n" +
		"hop(Z,Y) :- e(Z,Y).\nhop(Z,Y) :- extra(Z,Y).\nextra(0,0).\n"
	for _, md := range snModes {
		got := snRun(t, fmt.Sprintf(prog, "r(X,Z)")+snEdges, "r(X,Y)", md.mode)
		ref := snRun(t, fmt.Sprintf(prog, "call(r(X,Z))")+snEdges, "r(X,Y)", md.mode)
		if g, r := CanonicalDump(got), CanonicalDump(ref); g != r {
			t.Fatalf("%s: tables differ:\n%s\nnaive:\n%s", md.name, g, r)
		}
		if !strings.Contains(CanonicalDump(got), "r(1,7)") {
			t.Fatalf("%s: the asserted edge was not used:\n%s", md.name, CanonicalDump(got))
		}
	}
}
