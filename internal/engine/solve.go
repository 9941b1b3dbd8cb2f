package engine

import (
	"fmt"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// solve proves goal with a fresh cut barrier (cuts inside goal are local
// to it, as in call/1).
func (m *Machine) solve(goal term.Term, k func() bool) bool {
	return m.solveG(goal, new(bool), k)
}

// solveG proves a single goal.
//
// Continuation protocol: k is invoked once per solution with bindings on
// the trail; it returns true to stop the search ("stop"). solveG returns
// the stop signal, and always restores the trail to its entry state
// before returning. Cut is implemented as a stop that additionally sets
// the owning barrier flag; the frame that created the barrier (the clause
// loop in resolveClauses, or an if-then-else condition) consumes the flag
// and converts the stop back into ordinary failure of the remaining
// alternatives.
func (m *Machine) solveG(goal term.Term, cut *bool, k func() bool) bool {
	m.depth++
	if m.depth > m.Limits.maxDepth() {
		m.throwErr(fmt.Errorf("%w (%d); looping non-tabled predicate?",
			ErrDepthLimit, m.Limits.maxDepth()))
	}
	if m.steps++; m.steps >= ctxCheckInterval {
		m.steps = 0
		m.checkCtx()
	}
	defer func() { m.depth-- }()

	goal = term.Deref(goal)
	switch g := goal.(type) {
	case *term.Var:
		m.throwf("unbound variable as goal")
	case term.Int:
		m.throwf("number %v as goal", g)
	}
	f, args, _ := term.FunctorArity(goal)
	switch {
	case f == "true" && len(args) == 0:
		return k()
	case (f == "fail" || f == "false") && len(args) == 0:
		return false
	case f == "!" && len(args) == 0:
		if cut == nil {
			m.throwf("cut in the body of a tabled predicate")
		}
		if stop := k(); stop {
			return true
		}
		*cut = true
		return true
	case f == "," && len(args) == 2:
		return m.solveG(args[0], cut, func() bool {
			return m.solveG(args[1], cut, k)
		})
	case f == ";" && len(args) == 2:
		if c, ok := term.Deref(args[0]).(*term.Compound); ok && c.Functor == "->" && len(c.Args) == 2 {
			return m.solveITE(c.Args[0], c.Args[1], args[1], cut, k)
		}
		if stop := m.solveG(args[0], cut, k); stop {
			return true
		}
		return m.solveG(args[1], cut, k)
	case f == "->" && len(args) == 2:
		return m.solveITE(args[0], args[1], term.Atom("fail"), cut, k)
	case (f == "\\+" || f == "not") && len(args) == 1:
		return m.solveNegation(args[0], k)
	case f == "call" && len(args) >= 1:
		g := term.Deref(args[0])
		if len(args) > 1 {
			name, base, ok := term.FunctorArity(g)
			if !ok {
				m.throwf("call/%d on non-callable %v", len(args), g)
			}
			all := append(append([]term.Term{}, base...), args[1:]...)
			g = term.NewCompound(name, all...)
		}
		return m.solveG(g, new(bool), k)
	}

	key := pkey{name: f, arity: len(args)}
	if bi, ok := m.builtins[key]; ok {
		m.stats.BuiltinCalls++
		return bi(m, args, k)
	}
	p, ok := m.preds[key]
	if !ok {
		m.throwf("undefined predicate %s in goal %v", key, goal)
	}
	if p.Tabled {
		return m.solveTabled(p, goal, k)
	}
	return m.resolveClauses(p, goal, k)
}

// solveITE implements (Cond -> Then ; Else) with the standard semantics:
// the condition is evaluated at most to its first solution; cuts inside
// the condition are local to it.
func (m *Machine) solveITE(cond, then, els term.Term, cut *bool, k func() bool) bool {
	condMet := false
	var stopOuter bool
	condCut := false
	m.solveG(cond, &condCut, func() bool {
		condMet = true
		stopOuter = m.solveG(then, cut, k)
		return true // commit to the first condition solution
	})
	if condMet {
		return stopOuter
	}
	return m.solveG(els, cut, k)
}

// solveNegation implements negation as failure. The engine does not
// check stratification; the analyses in this repository use definite
// programs only.
func (m *Machine) solveNegation(g term.Term, k func() bool) bool {
	found := false
	var localCut bool
	m.solveG(g, &localCut, func() bool {
		found = true
		return true
	})
	if found {
		return false
	}
	return k()
}

// resolveClauses is ordinary SLD resolution over the predicate's clauses.
// It owns a cut barrier: a cut in a clause body commits to that clause
// and to the bindings made so far in the body.
func (m *Machine) resolveClauses(p *Pred, goal term.Term, k func() bool) bool {
	if m.Mode == ModeClosure {
		return m.resolveClosure(p, goal, k)
	}
	cut := false
	for _, cl := range p.Clauses {
		m.stats.Resolutions++
		if m.tracer != nil {
			m.tracer.Emit(obs.EvResolutions, p.Indicator, 1)
		}
		mark := m.trail.Mark()
		if stop := m.activate(goal, cl, &cut, false, k); stop {
			m.trail.Undo(mark)
			if cut {
				return false
			}
			return true
		}
		m.trail.Undo(mark)
		if cut {
			return false
		}
	}
	return false
}

// activate resolves goal against one clause without copying it. The
// head is matched against the clause's skeleton through the machine's
// pooled frame (term.MatchSkeleton; a failed head allocates nothing).
// Only after it matches is the body instantiated from the frame and its
// continuation chain built, once per activation: backtracking into a
// body goal re-enters the same continuation of the next goal instead
// of allocating a new one per solution. With sn set (a producer pass)
// the activation records the clause's semi-naive pruning literal in
// m.snGoal. It returns k's stop signal; the bindings are the caller's
// to undo.
func (m *Machine) activate(goal term.Term, cl *Clause, cut *bool, sn bool, k func() bool) bool {
	frame := m.getFrame(cl.nvars)
	if !term.MatchSkeleton(goal, cl.skelHead, frame, &m.trail) {
		clear(frame)
		return false
	}
	// Fresh variables for the body-only slots, created in slot order:
	// the chain is built back to front, and the standard order of terms
	// compares unbound variables by creation.
	for i, v := range frame {
		if v == nil {
			frame[i] = term.NewVar("_")
		}
	}
	next := k
	var first term.Term = term.Atom("true")
	for i := len(cl.skelBody) - 1; i >= 0; i-- {
		g := term.InstantiateFrame(cl.skelBody[i], frame)
		if sn && i == cl.sn.Body {
			m.snGoal = cl.sn.Literal(g)
		}
		if i == 0 {
			first = g
			break
		}
		nk := next
		next = func() bool { return m.solveG(g, cut, nk) }
	}
	clear(frame)
	return m.solveG(first, cut, next)
}

// getFrame returns the machine's frame with n slots, all nil. Head
// matching and body instantiation never re-enter the machine, and
// activate clears the frame before the body runs, so one frame per
// machine serves every activation; parallel shards get their own.
func (m *Machine) getFrame(n int) []term.Term {
	if cap(m.frame) < n {
		m.frame = make([]term.Term, n)
	}
	return m.frame[:n]
}
