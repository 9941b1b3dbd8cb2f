package supptab

import (
	"sort"
	"strings"
	"testing"

	"xlp/internal/engine"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

func TestShortBodiesUntouched(t *testing.T) {
	clauses, err := prolog.ParseProgram(`
		p(X) :- q(X), r(X).
		q(a). r(a).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	if res.Split != 0 || len(res.Tabled) != 0 {
		t.Fatalf("2-literal body should not split: %+v", res)
	}
	if len(res.Clauses) != len(clauses) {
		t.Fatal("clause count changed")
	}
}

func TestLongBodySplit(t *testing.T) {
	clauses, err := prolog.ParseProgram(`
		p(X, Y) :- a(X, T1), b(T1, T2), c(T2, T3), d(T3, Y).
		a(1, 2). b(2, 3). c(3, 4). d(4, 5).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	if res.Split != 1 {
		t.Fatalf("Split = %d", res.Split)
	}
	// 4 literals -> 3 sup predicates + final clause.
	if len(res.Tabled) != 3 {
		t.Fatalf("Tabled = %v", res.Tabled)
	}
	// The chain's 4 clauses, then the 4 facts.
	if len(res.Clauses) != 4+4 {
		t.Fatalf("clauses = %d", len(res.Clauses))
	}
	// The chain must thread only shared variables: sup after a(X,T1)
	// needs X (for nothing later? X is in head) and T1.
	first := res.Clauses[0].String()
	if !strings.Contains(first, "a(") {
		t.Fatalf("first sup clause = %s", first)
	}
}

func TestFactsAndDirectivesPreserved(t *testing.T) {
	clauses, err := prolog.ParseProgram(`
		:- table p/1.
		f(a).
		p(X) :- f(X), f(X), f(X), f(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	found := 0
	for _, c := range res.Clauses {
		s := c.String()
		if strings.Contains(s, "table") || s == "f(a)" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("directive or fact lost: %v", res.Clauses)
	}
}

// Semantic preservation: the transformed program computes exactly the
// same answers as the original on the tabled engine.
func TestSemanticsPreserved(t *testing.T) {
	src := `
		:- table p/2.
		e(a, b). e(b, c). e(c, d). e(d, a). e(b, d).
		p(X, Y) :- e(X, A), e(A, B), e(B, C), e(C, Y).
		p(X, Y) :- e(X, Y).
	`
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}

	m1 := engine.New()
	if err := m1.ConsultTerms(clauses); err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	m2 := engine.New()
	if err := m2.ConsultTerms(res.Clauses); err != nil {
		t.Fatal(err)
	}
	m2.Table(res.Tabled...)

	q := func(m *engine.Machine) []string {
		sols, err := m.Query("p(X, Y)")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(sols))
		for i, s := range sols {
			out[i] = term.Canonical(s)
		}
		sort.Strings(out)
		// dedup (non-tabled derivations may repeat)
		dedup := out[:0]
		for i, s := range out {
			if i == 0 || out[i-1] != s {
				dedup = append(dedup, s)
			}
		}
		return dedup
	}
	g1, g2 := q(m1), q(m2)
	if strings.Join(g1, ";") != strings.Join(g2, ";") {
		t.Fatalf("answers differ:\n  orig: %v\n  supp: %v", g1, g2)
	}
}

func TestSharedVariableThreading(t *testing.T) {
	// X occurs in literal 1 and the head only; T2 flows between
	// literals; a variable local to one literal must not be carried.
	clauses, err := prolog.ParseProgram(`
		h(X) :- a(X, L1), b(L1, Local, T2), c(T2, _), d(X).
		a(1, 2). b(2, 3, 4). c(4, 5). d(1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	// The sup predicate after b(...) must carry X and T2 but not Local.
	var afterB string
	for _, c := range res.Clauses {
		s := c.String()
		if strings.Contains(s, "b(") && strings.Contains(s, ":-") {
			afterB = s
		}
	}
	if afterB == "" {
		t.Fatalf("no sup clause for b: %v", res.Clauses)
	}
	head, _ := prolog.SplitClause(mustParse(t, afterB))
	_, args, _ := term.FunctorArity(head)
	if len(args) != 2 {
		t.Fatalf("sup head after b should carry 2 vars (X, T2): %s", afterB)
	}
}

// Builtins, control constructs and calls to undefined predicates open
// no table: they stay in the segment of the program call before them.
func TestNonProgramLiteralsOpenNoTable(t *testing.T) {
	clauses, err := prolog.ParseProgram(`
		p(X, Y) :- a(X, A), lub(A, n, B), B = C, (a(C, D) ; D = C), undef(D), b(D, Y).
		a(1, 2). b(2, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	if res.Split != 1 || len(res.Tabled) != 1 {
		t.Fatalf("want one split with one sup table, got %+v", res)
	}
	sup := res.Clauses[0].String()
	for _, lit := range []string{"a(", "lub(", "=(", ";(", "undef("} {
		if !strings.Contains(sup, lit) {
			t.Errorf("sup clause lacks %s: %s", lit, sup)
		}
	}
	if last := res.Clauses[1].String(); strings.Contains(last, "lub(") || !strings.Contains(last, "b(") {
		t.Errorf("final clause = %s", last)
	}
}

// A long body with at most one program call is a single segment: the
// clause is returned as is and not counted as split.
func TestSingleSegmentUnchanged(t *testing.T) {
	clauses, err := prolog.ParseProgram(`
		p(X, Y) :- lub(X, n, A), a(A, B), lub(B, d, C), C = Y, undef(Y).
		a(1, 2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := Transform(clauses, 3)
	if res.Split != 0 || len(res.Tabled) != 0 {
		t.Fatalf("single-segment body split: %+v", res)
	}
	if len(res.Clauses) != len(clauses) {
		t.Fatalf("clause count %d, want %d", len(res.Clauses), len(clauses))
	}
	for i := range clauses {
		if res.Clauses[i] != clauses[i] {
			t.Errorf("clause %d rewritten: %s", i, res.Clauses[i])
		}
	}
}

func mustParse(t *testing.T, src string) term.Term {
	t.Helper()
	tm, _, err := prolog.ParseTerm(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return tm
}
