package term_test

import (
	"math/rand"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/prolog"
	"xlp/internal/randgen"
	"xlp/internal/term"
)

// The kernels of skeleton.go are checked against the operations they
// replace: MatchSkeleton + InstantiateFrame against unifying the goal
// with a full fresh copy of the clause (instantiateSkeleton below), and
// Detach against Rename(Resolve(t), nil) with IsGround.

// instantiateSkeleton is the reference: a copy of the skeleton with every
// Ref i replaced by vars[i].
func instantiateSkeleton(t term.Term, vars []term.Term) term.Term {
	switch t := t.(type) {
	case term.Ref:
		return vars[int(t)]
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = instantiateSkeleton(a, vars)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// skelClause is one clause compiled the way the engine stores it.
type skelClause struct {
	head  term.Term
	body  []term.Term
	nvars int
}

func compileClause(cl term.Term) skelClause {
	head, body := prolog.SplitClause(cl)
	if head == nil {
		head = body
		body = term.Atom("true")
	}
	idx := map[*term.Var]int{}
	sc := skelClause{head: term.CompileSkeleton(head, idx)}
	for _, g := range prolog.Conjuncts(body) {
		sc.body = append(sc.body, term.CompileSkeleton(g, idx))
	}
	sc.nvars = len(idx)
	return sc
}

// acyclic reports whether t is a finite tree; unification without the
// occurs check may bind a variable into its own value.
func acyclic(t term.Term) bool {
	onPath, done := map[*term.Compound]bool{}, map[*term.Compound]bool{}
	var walk func(term.Term) bool
	walk = func(t term.Term) bool {
		c, ok := term.Deref(t).(*term.Compound)
		if !ok || done[c] {
			return true
		}
		if onPath[c] {
			return false
		}
		onPath[c] = true
		for _, a := range c.Args {
			if !walk(a) {
				return false
			}
		}
		delete(onPath, c)
		done[c] = true
		return true
	}
	return walk(t)
}

// resolution renders the resolved goal and body of one resolution step,
// or reports the step as cyclic.
func resolution(goal term.Term, body []term.Term) (string, bool) {
	tuple := term.Comp("r", append([]term.Term{goal}, body...)...)
	if !acyclic(tuple) {
		return "", false
	}
	return term.Canonical(tuple), true
}

// checkMatch resolves goal against cl both ways and compares: the same
// success, resolved goal and body equal up to variable renaming, and
// the goal untouched after the trail is undone.
func checkMatch(t *testing.T, goal term.Term, cl skelClause) {
	t.Helper()
	before := term.Canonical(goal)
	goalVars := term.Vars(goal)

	var tr term.Trail
	vars := make([]term.Term, cl.nvars)
	for i := range vars {
		vars[i] = term.NewVar("_")
	}
	refOK := term.Unify(goal, instantiateSkeleton(cl.head, vars), &tr)
	var refStr string
	var refAcyclic bool
	if refOK {
		body := make([]term.Term, len(cl.body))
		for i, g := range cl.body {
			body[i] = instantiateSkeleton(g, vars)
		}
		refStr, refAcyclic = resolution(goal, body)
	}
	tr.Undo(0)

	frame := make([]term.Term, cl.nvars)
	ok := term.MatchSkeleton(goal, cl.head, frame, &tr)
	if ok != refOK {
		t.Fatalf("MatchSkeleton(%v, %v) = %v, Unify with a fresh copy = %v", before, cl.head, ok, refOK)
	}
	if ok {
		body := make([]term.Term, len(cl.body))
		for i, g := range cl.body {
			body[i] = term.InstantiateFrame(g, frame)
		}
		got, gotAcyclic := resolution(goal, body)
		if gotAcyclic != refAcyclic {
			t.Fatalf("goal %v against %v: acyclic %v, reference acyclic %v", before, cl.head, gotAcyclic, refAcyclic)
		}
		if got != refStr {
			t.Fatalf("goal %v against %v :- %v:\n got %s\nwant %s", before, cl.head, cl.body, got, refStr)
		}
	}
	tr.Undo(0)
	if after := term.Canonical(goal); after != before {
		t.Fatalf("goal changed after undo: %s -> %s", before, after)
	}
	for _, v := range goalVars {
		if v.Ref != nil {
			t.Fatalf("goal variable %v still bound after undo", v.Name)
		}
	}
}

// checkDetach compares Detach with Rename(Resolve(t), nil) and checks
// that the copy shares no variable with t.
func checkDetach(t *testing.T, tm term.Term) {
	t.Helper()
	if !acyclic(tm) {
		return
	}
	got, ground := term.Detach(tm)
	ref := term.Rename(term.Resolve(tm), nil)
	if term.Canonical(got) != term.Canonical(ref) {
		t.Fatalf("Detach(%v) = %v, want a variant of %v", tm, got, ref)
	}
	if ground != term.IsGround(ref) {
		t.Fatalf("Detach(%v) ground = %v, IsGround = %v", tm, ground, !ground)
	}
	orig := map[*term.Var]bool{}
	for _, v := range term.Vars(tm) {
		orig[v] = true
	}
	for _, v := range term.Vars(got) {
		if orig[v] {
			t.Fatalf("Detach(%v) kept variable %v of the original", tm, v)
		}
	}
}

// randomTerm builds a random term over a small signature with variables
// drawn from pool, so terms share and repeat variables.
func randomTerm(r *rand.Rand, depth int, pool []*term.Var) term.Term {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return term.Atom([]string{"a", "b", "[]"}[r.Intn(3)])
		case 1:
			return term.Int(r.Intn(3))
		default:
			return pool[r.Intn(len(pool))]
		}
	}
	f := []string{"f", "g", "."}[r.Intn(3)]
	n := 2
	if f == "f" {
		n = 1 + r.Intn(3)
	}
	args := make([]term.Term, n)
	for i := range args {
		args[i] = randomTerm(r, depth-1, pool)
	}
	return &term.Compound{Functor: f, Args: args}
}

func newPool(n int) []*term.Var {
	pool := make([]*term.Var, n)
	for i := range pool {
		pool[i] = term.NewVar("P")
	}
	return pool
}

// preBind binds some of pool's variables to random terms over the other
// variables, so goals reach their values through bound variables as
// the engine's goals do. The bindings stay for the caller's checks.
func preBind(r *rand.Rand, pool []*term.Var, tr *term.Trail) {
	for i, v := range pool[:len(pool)-1] {
		if r.Intn(3) == 0 {
			tr.Bind(v, randomTerm(r, 2, pool[i+1:len(pool):len(pool)]))
		}
	}
}

// randgenTerms returns the clauses and the literals (heads and body
// goals) of generated Prolog programs of every shape.
func randgenTerms(t *testing.T, seeds int) (clauses, literals []term.Term) {
	t.Helper()
	for _, shape := range randgen.PrologShapes() {
		for seed := int64(0); seed < int64(seeds); seed++ {
			p := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			cls, err := prolog.ParseProgram(p.Source)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape, seed, err)
			}
			for _, cl := range cls {
				head, body := prolog.SplitClause(cl)
				if head == nil {
					continue
				}
				clauses = append(clauses, cl)
				literals = append(literals, head)
				literals = append(literals, prolog.Conjuncts(body)...)
			}
		}
	}
	return clauses, literals
}

// TestPropMatchSkeleton: on the clauses of generated programs, every
// program literal resolved against every clause of its predicate (and
// a sample of others), and on random terms against random clauses,
// MatchSkeleton + InstantiateFrame agree with the full-copy reference.
func TestPropMatchSkeleton(t *testing.T) {
	clauses, literals := randgenTerms(t, 6)
	r := rand.New(rand.NewSource(1))
	for _, cl := range clauses {
		sc := compileClause(cl)
		want, _ := term.Indicator(sc.head)
		for _, lit := range literals {
			if ind, _ := term.Indicator(lit); ind != want && r.Intn(20) != 0 {
				continue
			}
			// Goals arrive with variables the clause does not have.
			checkMatch(t, term.Rename(lit, nil), sc)
		}
	}
	for i := 0; i < 3000; i++ {
		pool := newPool(4)
		var pre term.Trail
		preBind(r, pool, &pre)
		goal := term.Comp("p", randomTerm(r, 3, pool), randomTerm(r, 3, pool))
		cpool := newPool(3)
		head := term.Comp("p", randomTerm(r, 3, cpool), randomTerm(r, 3, cpool))
		body := term.Comp(",", randomTerm(r, 2, cpool), randomTerm(r, 2, newPool(2)))
		checkMatch(t, goal, compileClause(term.Comp(":-", head, body)))
	}
}

// TestPropDetach: Detach agrees with Rename(Resolve(t), nil) and
// IsGround on program literals and on random terms reached through
// bound variables.
func TestPropDetach(t *testing.T) {
	_, literals := randgenTerms(t, 6)
	for _, lit := range literals {
		checkDetach(t, lit)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		pool := newPool(4)
		var pre term.Trail
		preBind(r, pool, &pre)
		checkDetach(t, randomTerm(r, 4, pool))
		pre.Undo(0)
	}
	// Past the linear renaming window the map takes over consistently.
	pool := newPool(40)
	args := make([]term.Term, 0, 2*len(pool))
	for _, v := range pool {
		args = append(args, v)
	}
	for i := len(pool) - 1; i >= 0; i-- {
		args = append(args, pool[i])
	}
	checkDetach(t, term.Comp("f", args...))
}

// TestDetachSharesVariableFree: variable-free subterms are shared, a
// ground term is returned whole, and a copy survives the undo of the
// bindings it was resolved through.
func TestDetachSharesVariableFree(t *testing.T) {
	g := term.Comp("g", term.Atom("a"), term.Int(1))
	x := term.NewVar("X")
	tm := term.Comp("f", g, x)
	if d, ground := term.Detach(g); d != term.Term(g) || !ground {
		t.Fatalf("Detach of a ground term = %v (ground %v), want the term itself", d, ground)
	}
	d, ground := term.Detach(tm)
	if ground || d.(*term.Compound).Args[0] != term.Term(g) {
		t.Fatalf("Detach(%v) = %v: ground %v, variable-free argument not shared", tm, d, ground)
	}
	var tr term.Trail
	tr.Bind(x, term.Comp("h", term.Atom("b")))
	snap, ground := term.Detach(tm)
	tr.Undo(0)
	if !ground || term.Canonical(snap) != "f(g(a,1),h(b))" {
		t.Fatalf("snapshot through a binding = %v (ground %v)", snap, ground)
	}
	if n := testing.AllocsPerRun(100, func() { term.Detach(g) }); n != 0 {
		t.Fatalf("Detach of a ground term allocates %.0f times", n)
	}
}

// TestMatchSkeletonFailedHeadAllocatesNothing: a head that fails in read
// mode, after filling frame slots on the way, allocates nothing.
func TestMatchSkeletonFailedHeadAllocatesNothing(t *testing.T) {
	x := term.NewVar("X")
	goal := term.Comp("p", term.Comp("s", term.Atom("a")), x, term.Atom("b"))
	cl, _, err := prolog.ParseTerm("p(s(Y), Z, c) :- q(Y, Z)")
	if err != nil {
		t.Fatal(err)
	}
	sc := compileClause(cl)
	frame := make([]term.Term, sc.nvars)
	var tr term.Trail
	n := testing.AllocsPerRun(100, func() {
		if term.MatchSkeleton(goal, sc.head, frame, &tr) {
			t.Fatal("p(s(a), X, b) matched p(s(Y), Z, c)")
		}
		tr.Undo(0)
		clear(frame)
	})
	if n != 0 {
		t.Fatalf("failed head match allocates %.0f times", n)
	}
}

// FuzzMatchSkeleton checks MatchSkeleton + InstantiateFrame against the
// full-copy reference on arbitrary parsed goals and clauses.
func FuzzMatchSkeleton(f *testing.F) {
	for _, p := range [][2]string{
		{"p(X, b)", "p(a, Y) :- q(Y)"},
		{"p(X, X)", "p(A, f(A))"},
		{"p(f(X), X)", "p(f(g(A)), A) :- r(A, B), s(B)"},
		{"p([H | T], H)", "p([A, B | C], B) :- q(C)"},
		{"p(A, B, A)", "p(B, c, C) :- t(B, C)"},
		{"q(s(s(z)), N)", "q(s(X), s(Y)) :- q(X, Y)"},
		{"p(X, Y)", "p(g(A, A), A)"},
	} {
		f.Add(p[0], p[1])
	}
	for _, p := range corpus.LogicPrograms()[:3] {
		cls, err := prolog.ParseProgram(p.Source)
		if err != nil {
			continue
		}
		for i := 0; i+1 < len(cls); i += 5 {
			head, _ := prolog.SplitClause(cls[i+1])
			if head == nil {
				continue
			}
			f.Add(prolog.WriteTerm(head), prolog.WriteClause(cls[i]))
		}
	}
	f.Fuzz(func(t *testing.T, goalSrc, clauseSrc string) {
		goal, _, errG := prolog.ParseTerm(goalSrc)
		cl, _, errC := prolog.ParseTerm(strings.TrimSuffix(strings.TrimSpace(clauseSrc), "."))
		if errG != nil || errC != nil {
			return
		}
		if _, ok := term.Indicator(goal); !ok {
			return
		}
		sc := compileClause(cl)
		if _, ok := term.Indicator(sc.head); !ok {
			return
		}
		checkMatch(t, goal, sc)
		checkDetach(t, goal)
	})
}
