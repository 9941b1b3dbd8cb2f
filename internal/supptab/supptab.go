// Package supptab implements supplementary tabling, the optimization the
// paper's §4.2 names as the remedy for analysis-dominated benchmarks like
// pcprove ("tabling intermediate results (thereby eliminating the
// existentially quantified demand variables) will reduce backtracking...
// XSB offers an analogous (compile-time) optimization called
// supplementary tabling. However, the effectiveness of this optimization
// in reducing analysis time remains to be established.").
//
// The transformation folds a long clause body into a chain of tabled
// auxiliary predicates, each carrying only the variables shared between
// the prefix evaluated so far and the rest of the clause. The body is
// cut into segments S1..Sk at calls into the program (literals whose
// predicate has a clause in the input); every other literal — a builtin
// such as lub/3 or aunify/2, a control construct such as ;/2, a call to
// an undefined predicate — stays in the segment before it, and leading
// ones join the first segment:
//
//	h(H) :- S1, S2, ..., Sk.
//
// becomes
//
//	sup1(V1) :- S1.
//	sup2(V2) :- sup1(V1), S2.
//	...
//	h(H)     :- sup{k-1}(V{k-1}), Sk.
//
// where Vi = Vars(S1..Si) ∩ (Vars(S{i+1}..Sk) ∪ Vars(H)). Because each
// supi is tabled, re-derivations of the same intermediate tuple are
// shared instead of re-enumerated, collapsing the cross-product
// backtracking of independent subgoals — at the cost of extra tables.
// Splitting only at program calls keeps that cost where it pays: a
// table after a builtin step would hold exactly the answers of the table
// before it, extended by the builtin's output column. A body that forms a
// single segment is left unchanged.
package supptab

import (
	"fmt"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Result is the transformed program.
type Result struct {
	Clauses []term.Term
	// Tabled lists the auxiliary predicate indicators that must be
	// tabled in addition to the program's own tabled predicates.
	Tabled []string
	// Split counts how many clauses were split.
	Split int
}

// Transform applies supplementary tabling to every clause whose body has
// at least minLits literals (a reasonable default is 3) and more than
// one segment. Clauses are given and returned in ':-'(Head, Body) / fact
// form.
func Transform(clauses []term.Term, minLits int) *Result {
	defined := map[string]bool{}
	for _, c := range clauses {
		if head, _ := prolog.SplitClause(c); head != nil {
			if ind, ok := term.Indicator(head); ok {
				defined[ind] = true
			}
		}
	}
	res := &Result{}
	gensym := 0
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			res.Clauses = append(res.Clauses, c)
			continue
		}
		lits := prolog.Conjuncts(body)
		if len(lits) < minLits || isTrueBody(lits) {
			res.Clauses = append(res.Clauses, c)
			continue
		}
		segs := segments(lits, defined)
		if len(segs) == 1 {
			res.Clauses = append(res.Clauses, c)
			continue
		}
		res.Split++
		res.addChain(head, segs, &gensym)
	}
	return res
}

func isTrueBody(lits []term.Term) bool {
	return len(lits) == 1 && term.Equal(lits[0], term.Atom("true"))
}

// segments cuts a body before each program call that follows another
// program call.
func segments(lits []term.Term, defined map[string]bool) [][]term.Term {
	var segs [][]term.Term
	var cur []term.Term
	hasCall := false
	for _, l := range lits {
		ind, _ := term.Indicator(l)
		call := defined[ind]
		if call && hasCall {
			segs = append(segs, cur)
			cur = nil
		}
		cur = append(cur, l)
		hasCall = hasCall || call
	}
	return append(segs, cur)
}

func (res *Result) addChain(head term.Term, segs [][]term.Term, gensym *int) {
	n := len(segs)
	// suffixVars[i] = variables of segs[i..n-1].
	suffixVars := make([]map[*term.Var]bool, n+1)
	suffixVars[n] = varSet(nil)
	for i := n - 1; i >= 0; i-- {
		suffixVars[i] = varSet(suffixVars[i+1], segs[i]...)
	}
	headVars := varSet(nil, head)

	prefixVars := map[*term.Var]bool{}
	var prev term.Term // previous supplementary literal (nil for none)
	for i := 0; i < n-1; i++ {
		prefixVars = varSet(prefixVars, segs[i]...)
		// Shared variables that must flow past this point.
		var shared []*term.Var
		for v := range prefixVars {
			if suffixVars[i+1][v] || headVars[v] {
				shared = append(shared, v)
			}
		}
		term.SortVars(shared)
		*gensym++
		supHead := term.NewCompound(fmt.Sprintf("sup__%d", *gensym), varTerms(shared)...)
		res.Clauses = append(res.Clauses, clauseOf(supHead, prev, segs[i]))
		ind, _ := term.Indicator(supHead)
		res.Tabled = append(res.Tabled, ind)
		prev = supHead
	}
	res.Clauses = append(res.Clauses, clauseOf(head, prev, segs[n-1]))
}

// clauseOf builds head :- prev, lits (prev omitted when nil).
func clauseOf(head, prev term.Term, lits []term.Term) term.Term {
	if prev != nil {
		lits = append([]term.Term{prev}, lits...)
	}
	body := lits[len(lits)-1]
	for i := len(lits) - 2; i >= 0; i-- {
		body = term.Comp(",", lits[i], body)
	}
	return term.Comp(":-", head, body)
}

func varSet(base map[*term.Var]bool, ts ...term.Term) map[*term.Var]bool {
	out := map[*term.Var]bool{}
	for v := range base {
		out[v] = true
	}
	for _, t := range ts {
		for _, v := range term.Vars(t) {
			out[v] = true
		}
	}
	return out
}

func varTerms(vs []*term.Var) []term.Term {
	out := make([]term.Term, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}
