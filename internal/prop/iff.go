// Package prop implements groundness analysis of logic programs over the
// Prop domain, following the paper's §3.1: a source program P is
// transformed into an abstract program P# over boolean values whose
// minimal model describes the groundness of P's predicates, and P# is
// evaluated on the tabled engine. The recorded calls give input
// groundness, the recorded answers output groundness.
package prop

import (
	"fmt"
	"strings"

	"xlp/internal/bottomup"
	"xlp/internal/engine"
	"xlp/internal/term"
)

// atoms of the Prop domain
var (
	atomTrue  = term.Atom("true")
	atomFalse = term.Atom("false")
)

// iffTerm builds the literal iff(Res, V1, ..., Vk), denoting the boolean
// constraint Res ↔ V1 ∧ ... ∧ Vk (Res ↔ true when k = 0). This is the
// A[t]α rule of Figure 1.
func iffTerm(res term.Term, vars []term.Term) term.Term {
	return term.NewCompound("iff", append([]term.Term{res}, vars...)...)
}

// RegisterIff installs the native iff/N builtins on a tabled engine for
// all arities 1..maxArity. The builtin enumerates exactly the satisfying
// assignments of X ↔ Y1∧...∧Yk over {true,false}, respecting arguments
// that are already bound — the enumerative truth-table representation of
// §3.1 implemented as a native relation.
func RegisterIff(m *engine.Machine, maxArity int) {
	for k := 1; k <= maxArity; k++ {
		m.Register(fmt.Sprintf("iff/%d", k), iffBuiltin)
	}
}

// RegisterIffBottomUp installs the same relation on the bottom-up engine.
func RegisterIffBottomUp(s *bottomup.System, maxArity int) {
	for k := 1; k <= maxArity; k++ {
		s.Builtin(fmt.Sprintf("iff/%d", k), func(args []term.Term, tr *term.Trail, k func()) {
			enumerateIff(args, tr, func() bool { k(); return false })
		})
	}
}

func iffBuiltin(m *engine.Machine, args []term.Term, k func() bool) bool {
	return enumerateIff(args, machineTrail(m), k)
}

// machineTrail exposes the machine's trail to the builtin via a small
// shim: builtins receive the machine, and the engine package keeps its
// trail private, so we bind through a scratch trail of our own and merge
// by using unification through the engine's public builtin contract.
//
// In practice the builtin protocol hands us k to be called with bindings
// on the *machine's* trail; engine.Machine offers UnifyInBuiltin for
// this purpose.
func machineTrail(m *engine.Machine) *term.Trail { return m.BuiltinTrail() }

// boolTerms are the Prop values boxed once, so binding a variable to
// one allocates nothing.
var boolTerms = [2]term.Term{atomTrue, atomFalse}

// enumerateIff enumerates solutions of iff(X, Y1..Yk): assignments of
// {true,false} to the distinct unbound variables among the arguments
// such that X = Y1 ∧ ... ∧ Yk. Bound arguments prune the enumeration.
func enumerateIff(args []term.Term, tr *term.Trail, k func() bool) bool {
	// Collect distinct unbound variables. iff arities are small, so a
	// linear scan over a stack buffer replaces a set.
	var buf [16]*term.Var
	vars := buf[:0]
	for _, a := range args {
		if v, ok := term.Deref(a).(*term.Var); ok && !hasVar(vars, v) {
			vars = append(vars, v)
		}
	}
	return assignIff(args, vars, tr, k)
}

func hasVar(vars []*term.Var, v *term.Var) bool {
	for _, w := range vars {
		if w == v {
			return true
		}
	}
	return false
}

// assignIff binds vars[0], vars[1], ... to each boolean in turn and,
// once all are bound, checks the constraint.
func assignIff(args []term.Term, vars []*term.Var, tr *term.Trail, k func() bool) bool {
	if len(vars) == 0 {
		x, ok := boolVal(args[0])
		if !ok {
			return false
		}
		conj := true
		for _, y := range args[1:] {
			v, ok := boolVal(y)
			if !ok {
				return false
			}
			conj = conj && v
		}
		if x == conj {
			return k()
		}
		return false
	}
	for _, val := range boolTerms {
		mark := tr.Mark()
		tr.Bind(vars[0], val)
		if assignIff(args, vars[1:], tr, k) {
			tr.Undo(mark)
			return true
		}
		tr.Undo(mark)
	}
	return false
}

func boolVal(t term.Term) (bool, bool) {
	a, ok := term.Deref(t).(term.Atom)
	if !ok {
		return false, false
	}
	switch a {
	case atomTrue:
		return true, true
	case atomFalse:
		return false, true
	}
	return false, false
}

// PureIffClauses generates a pure-Prolog definition of iff/1..maxArity in
// terms of bool/1 and and/3 tables — the encoding a Prolog-only analyzer
// would load. Used to validate the native builtin and for the paper's
// "about 100 lines of tabled Prolog" fidelity check.
func PureIffClauses(maxArity int) string {
	var sb strings.Builder
	sb.WriteString("bool(true).\nbool(false).\n")
	sb.WriteString("and(true, true, true).\nand(true, false, false).\n")
	sb.WriteString("and(false, true, false).\nand(false, false, false).\n")
	// iff(X): X = true.
	sb.WriteString("iff(true).\n")
	for k := 1; k < maxArity; k++ {
		// iff(X, Y1..Yk) :- bool(Y1), ..., bool(Yk), X is their conjunction.
		args := make([]string, k)
		for i := range args {
			args[i] = fmt.Sprintf("Y%d", i+1)
		}
		fmt.Fprintf(&sb, "iff(X, %s) :- ", strings.Join(args, ", "))
		for i := range args {
			fmt.Fprintf(&sb, "bool(%s), ", args[i])
		}
		// chain conjunctions: C0 = true, and(C0,Y1,C1), ...
		sb.WriteString("C0 = true, ")
		prev := "C0"
		for i := range args {
			cur := fmt.Sprintf("C%d", i+1)
			fmt.Fprintf(&sb, "and(%s, %s, %s), ", prev, args[i], cur)
			prev = cur
		}
		fmt.Fprintf(&sb, "X = %s.\n", prev)
	}
	return sb.String()
}
