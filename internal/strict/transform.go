// Package strict implements strictness analysis of lazy functional
// programs by demand propagation (Sekar & Ramakrishnan [37]), following
// the paper's §3.2: each function f yields a predicate sp_f modeling how
// a demand on f's output propagates to demands on its arguments, with
// demand extents n (null) < d (head-normal form) < e (normal form).
// The derived logic program is evaluated on the tabled engine; answers
// are combined per argument by greatest lower bound at collection time.
package strict

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/fl"
	"xlp/internal/term"
)

// Demand atoms.
const (
	DemandN = term.Atom("n") // null demand
	DemandD = term.Atom("d") // head-normal-form demand
	DemandE = term.Atom("e") // normal-form demand
)

// Demand is a point of the demand lattice n < d < e.
type Demand int

const (
	N Demand = iota
	D
	E
)

func (d Demand) String() string {
	switch d {
	case E:
		return "e"
	case D:
		return "d"
	}
	return "n"
}

// Atom returns the Prolog atom for the demand.
func (d Demand) Atom() term.Atom {
	switch d {
	case E:
		return DemandE
	case D:
		return DemandD
	}
	return DemandN
}

// DemandOf parses a demand atom.
func DemandOf(t term.Term) (Demand, bool) {
	a, ok := term.Deref(t).(term.Atom)
	if !ok {
		return N, false
	}
	switch a {
	case DemandE:
		return E, true
	case DemandD:
		return D, true
	case DemandN:
		return N, true
	}
	return N, false
}

// Glb returns the greatest lower bound.
func Glb(a, b Demand) Demand {
	if a < b {
		return a
	}
	return b
}

// Lub returns the least upper bound.
func Lub(a, b Demand) Demand {
	if a > b {
		return a
	}
	return b
}

// spName and pmName build predicate names for functions/constructors.
func spName(name string, arity int) string {
	return fmt.Sprintf("sp_%s_%d", name, arity)
}

func pmName(name string, arity int) string {
	return fmt.Sprintf("pm_%s_%d", name, arity)
}

// Transformed is the derived strictness logic program.
type Transformed struct {
	Clauses []term.Term
	// SpPreds maps function indicators to their sp predicate indicator.
	SpPreds map[string]string
}

// Transform derives the strictness program of Figure 3 from a parsed
// functional program.
func Transform(p *fl.Program) (*Transformed, error) {
	tr := &Transformed{SpPreds: map[string]string{}}

	// Support relation: demand/1. lub/3 and cond_demand/2 are native
	// builtins (see RegisterDemandOps): they read unbound demand
	// variables as n (no demand). A pure-clause lub would have to
	// enumerate values for an unbound input, which both explodes the
	// search (5^k backtracking over lub chains) and over-claims demands
	// for occurrences on untaken conditional branches. Being builtins,
	// they never open a supplementary table (internal/supptab splits
	// only at calls into the program).
	tr.addSrc(`
		demand(n). demand(d). demand(e).
	`)

	// Constructor relations: sp_c (demand flow through construction) and
	// pm_c (demand flow through pattern matching).
	for _, ind := range p.SortedConstructors() {
		name, arity := splitInd(ind)
		tr.constructorRelations(name, arity)
	}
	// The primitive-operator relations.
	tr.addSrc(`
		sp_prim_2(e, e, e).
		sp_prim_2(d, e, e).
		sp_prim_2(n, n, n).
		sp_prim_1(e, e).
		sp_prim_1(d, e).
		sp_prim_1(n, n).
	`)

	for _, f := range p.SortedFuncs() {
		sp := spName(f.Name, f.Arity)
		tr.SpPreds[f.Indicator()] = fmt.Sprintf("%s/%d", sp, f.Arity+1)
		for _, eq := range f.Equations {
			cl, err := tr.equation(p, f, eq)
			if err != nil {
				return nil, err
			}
			tr.Clauses = append(tr.Clauses, cl)
		}
		// The n-demand clause: no demand on the output places no demand
		// on the arguments (paper: "we derive one clause sp_f(n, ...)").
		// Arguments are bound to n rather than left open: semantically
		// identical under glb collection, but ground answers keep the
		// downstream joins small.
		args := make([]term.Term, f.Arity+1)
		args[0] = DemandN
		for i := 1; i <= f.Arity; i++ {
			args[i] = DemandN
		}
		tr.Clauses = append(tr.Clauses, term.NewCompound(sp, args...))
	}
	return tr, nil
}

func splitInd(ind string) (string, int) {
	i := strings.LastIndexByte(ind, '/')
	var n int
	fmt.Sscanf(ind[i+1:], "%d", &n)
	return ind[:i], n
}

func (tr *Transformed) addSrc(src string) {
	clauses, err := parseAll(src)
	if err != nil {
		panic("strict: internal clause syntax error: " + err.Error())
	}
	tr.Clauses = append(tr.Clauses, clauses...)
}

// constructorRelations emits sp_c and pm_c for constructor c/k:
//
//	sp_c(e, e, ..., e).     e-demand on the construction demands NF of
//	sp_c(d, _, ..., _).     every component; d- or n-demand demands
//	sp_c(n, _, ..., _).     nothing of them.
//
//	pm_c(e, e, ..., e).     matching places e on the argument iff every
//	pm_c(d, ..) if some     component demand is e, else d (the paper's
//	component is not e.     pm_cons description).
//
// For k = 0 matching fully evaluates the constant, so pm_c(e).
func (tr *Transformed) constructorRelations(name string, arity int) {
	sp := spName(name, arity)
	pm := pmName(name, arity)
	mk := func(pred string, first term.Term, rest []term.Term) term.Term {
		return term.NewCompound(pred, append([]term.Term{first}, rest...)...)
	}
	allE := make([]term.Term, arity)
	allN := make([]term.Term, arity)
	for i := range allE {
		allE[i] = DemandE
		allN[i] = DemandN
	}
	// d- and n-demand on a construction propagate no demand (n) to the
	// components; the paper's "succeed for any values" is weakened to
	// the minimal value so answers stay ground.
	tr.Clauses = append(tr.Clauses,
		mk(sp, DemandE, allE),
		mk(sp, DemandD, allN),
		mk(sp, DemandN, allN),
	)
	if arity == 0 {
		tr.Clauses = append(tr.Clauses, mk(pm, DemandE, nil))
		return
	}
	tr.Clauses = append(tr.Clauses, mk(pm, DemandE, allE))
	// pm_c(d, ...) whenever some component demand is not e. Positions
	// other than the witness are don't-cares and must remain variables
	// (they are inputs, matched against already-computed demands).
	anon := func() []term.Term {
		out := make([]term.Term, arity)
		for i := range out {
			out[i] = term.NewVar("_")
		}
		return out
	}
	for i := 0; i < arity; i++ {
		for _, low := range []term.Term{DemandD, DemandN} {
			args := anon()
			args[i] = low
			tr.Clauses = append(tr.Clauses, mk(pm, DemandD, args))
		}
	}
}

// equation derives the sp clause for one equation (Figure 3's E and P).
func (tr *Transformed) equation(p *fl.Program, f *fl.Func, eq *fl.Equation) (term.Term, error) {
	ctx := &eqCtx{
		prog:    p,
		demands: map[*term.Var][]term.Term{},
	}
	dOut := term.NewVar("D")
	rhsLits, err := ctx.expr(eq.Rhs, dOut)
	if err != nil {
		return nil, err
	}
	// Combine multiple demands on the same variable with lub chains, each
	// lub emitted right after the last rhs literal that mentions one of
	// its operands (the head demand is bound at clause entry). Nothing
	// later binds an operand, so every lub reads what it would read after
	// the whole rhs, but the occurrence demands die at their producers:
	// supplementary tables (internal/supptab) past that point no longer
	// carry them.
	ready := map[*term.Var]int{}
	for i, l := range rhsLits {
		for _, v := range term.Vars(l) {
			ready[v] = i + 1
		}
	}
	ready[dOut] = 0
	readyAt := func(d term.Term) int { return ready[d.(*term.Var)] }
	// after[i] holds the lubs emitted right after rhsLits[i-1]; after[0]
	// those at clause entry.
	after := make([][]term.Term, len(rhsLits)+1)
	finalDemand := map[*term.Var]term.Term{}
	for _, v := range orderedVars(ctx.demands) {
		ds := ctx.demands[v]
		// Chain occurrences through the native lub; a final lub with n
		// normalizes a possibly-unbound occurrence demand (an occurrence
		// on an untaken conditional branch) to a ground n.
		cur, at := ds[0], readyAt(ds[0])
		for _, d := range ds[1:] {
			next := term.NewVar("L")
			at = max(at, readyAt(d))
			after[at] = append(after[at], term.Comp("lub", cur, d, next))
			cur = next
		}
		final := term.NewVar("T")
		after[at] = append(after[at], term.Comp("lub", cur, DemandN, final))
		finalDemand[v] = final
	}
	ctx.final = finalDemand

	headArgs := make([]term.Term, f.Arity+1)
	headArgs[0] = dOut
	var patLits []term.Term
	for i, pat := range eq.Patterns {
		x, lits := ctx.pattern(pat)
		headArgs[i+1] = x
		patLits = append(patLits, lits...)
	}

	lits := after[0]
	for i, l := range rhsLits {
		lits = append(append(lits, l), after[i+1]...)
	}
	lits = append(lits, patLits...)
	head := term.NewCompound(spName(f.Name, f.Arity), headArgs...)
	if len(lits) == 0 {
		return head, nil
	}
	return term.Comp(":-", head, conjoin(lits)), nil
}

type eqCtx struct {
	prog *fl.Program
	// demands accumulates, per source variable, the demand variables of
	// its occurrences in the rhs.
	demands map[*term.Var][]term.Term
	// final maps each variable to its combined demand (set after the
	// rhs pass).
	final map[*term.Var]term.Term
}

// expr emits literals propagating demand d into expression e (demand
// flows top-down: the application literal precedes its arguments'
// literals, the ordering §3.2 credits with reducing backtracking).
func (c *eqCtx) expr(e term.Term, d term.Term) ([]term.Term, error) {
	switch t := term.Deref(e).(type) {
	case *term.Var:
		c.demands[t] = append(c.demands[t], d)
		return nil, nil
	case term.Int:
		return nil, nil // constants absorb any demand
	case term.Atom:
		return nil, nil // 0-ary constructor: already in (head) normal form
	case *term.Compound:
		ind := fmt.Sprintf("%s/%d", t.Functor, len(t.Args))
		if t.Functor == "if" && len(t.Args) == 3 {
			return c.conditional(t.Args[0], t.Args[1], t.Args[2], d)
		}
		k := len(t.Args)
		subDemands := make([]term.Term, k)
		for i := range subDemands {
			subDemands[i] = term.NewVar("D")
		}
		var rel string
		switch {
		case c.prog.IsFunc(ind):
			rel = spName(t.Functor, k)
		case fl.Primops[ind]:
			rel = fmt.Sprintf("sp_prim_%d", k)
		default:
			rel = spName(t.Functor, k) // constructor relation
		}
		lits := []term.Term{term.NewCompound(rel, append([]term.Term{d}, subDemands...)...)}
		for i, a := range t.Args {
			sub, err := c.expr(a, subDemands[i])
			if err != nil {
				return nil, err
			}
			lits = append(lits, sub...)
		}
		return lits, nil
	}
	return nil, fmt.Errorf("strict: bad expression %v", e)
}

// conditional translates if(C, T, E) under demand d as two alternatives
// (one per branch); the condition receives a head-normal-form demand
// whenever the conditional is demanded at all. Strictness in every path
// emerges at collection time as the glb over the alternatives' answers.
func (c *eqCtx) conditional(cond, then, els term.Term, d term.Term) ([]term.Term, error) {
	dc := term.NewVar("Dc")
	condLits, err := c.expr(cond, dc)
	if err != nil {
		return nil, err
	}
	condSeq := append([]term.Term{term.Comp("cond_demand", d, dc)}, condLits...)

	// Each branch propagates the demand through its own fresh demand
	// variable, bound only when that alternative is taken; a variable
	// occurring in just one branch therefore shows no demand (unbound,
	// collected as n) in the answers of the other alternative.
	dThen := term.NewVar("Dt")
	thenLits, err := c.expr(then, dThen)
	if err != nil {
		return nil, err
	}
	thenSeq := append([]term.Term{term.Comp("=", dThen, d)}, thenLits...)
	dElse := term.NewVar("De")
	elseLits, err := c.expr(els, dElse)
	if err != nil {
		return nil, err
	}
	elseSeq := append([]term.Term{term.Comp("=", dElse, d)}, elseLits...)
	disj := term.Comp(";", seq(thenSeq), seq(elseSeq))
	return append(condSeq, disj), nil
}

// pattern emits literals computing the demand the equation places on one
// argument (demand flows bottom-up through patterns: component literals
// precede the pm literal).
func (c *eqCtx) pattern(p term.Term) (term.Term, []term.Term) {
	switch t := term.Deref(p).(type) {
	case *term.Var:
		if d, ok := c.final[t]; ok {
			return d, nil
		}
		// Variable unused in the rhs: no demand flows to it.
		return DemandN, nil
	case term.Int:
		// Matching an integer literal forces full evaluation.
		x := term.NewVar("X")
		return x, []term.Term{term.Comp("=", x, DemandE)}
	case term.Atom:
		x := term.NewVar("X")
		return x, []term.Term{term.Comp(pmName(string(t), 0), x)}
	case *term.Compound:
		k := len(t.Args)
		var lits []term.Term
		subs := make([]term.Term, k)
		for i, a := range t.Args {
			sub, ls := c.pattern(a)
			subs[i] = sub
			lits = append(lits, ls...)
		}
		x := term.NewVar("X")
		lits = append(lits, term.NewCompound(pmName(t.Functor, k),
			append([]term.Term{x}, subs...)...))
		return x, lits
	}
	return term.NewVar("_"), nil
}

// orderedVars returns the map's keys in creation order, keeping clause
// generation deterministic.
func orderedVars(m map[*term.Var][]term.Term) []*term.Var {
	out := make([]*term.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

func conjoin(lits []term.Term) term.Term {
	out := lits[len(lits)-1]
	for i := len(lits) - 2; i >= 0; i-- {
		out = term.Comp(",", lits[i], out)
	}
	return out
}

func seq(lits []term.Term) term.Term {
	if len(lits) == 0 {
		return term.Atom("true")
	}
	return conjoin(lits)
}
