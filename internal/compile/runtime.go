package compile

import "xlp/internal/term"

// Env is the runtime a compiled clause executes against: the owning
// machine's trail (choice points are trail checkpoints held by the
// engine's clause loop), its symbol-intern memo (index probes), and two
// callbacks into the engine — Call resolves a body goal (builtin,
// control construct, tabled or compiled predicate alike) and ThrowCut
// reports a cut executed with no barrier (a cut in the body of a tabled
// predicate, which may not cross the table boundary).
//
// An Env is single-goroutine, like the Machine that owns it, and is
// reused across all compiled activations of that machine.
type Env struct {
	Trail *term.Trail
	Syms  *term.SymCache
	// Call proves goal under the given cut barrier, invoking k per
	// solution; it returns k's stop signal and restores the trail to its
	// entry state before returning (the interpreter's solveG protocol).
	Call func(goal term.Term, cut *bool, k func() bool) bool
	// ThrowCut must not return (the engine panics an evaluation error).
	ThrowCut func()

	// frames is a free list of frame slices. Activations are strictly
	// LIFO within one solve, so the list stays small and hot.
	frames [][]term.Term
}

func (e *Env) intern(name string) term.Sym { return e.Syms.Intern(name) }

// getFrame returns a cleared frame with n slots, reusing the most
// recently released one when it is large enough.
func (e *Env) getFrame(n int) []term.Term {
	if l := len(e.frames); l > 0 {
		f := e.frames[l-1]
		e.frames = e.frames[:l-1]
		if cap(f) >= n {
			f = f[:n]
			for i := range f {
				f[i] = nil
			}
			return f
		}
	}
	return make([]term.Term, n)
}

func (e *Env) putFrame(f []term.Term) {
	for i := range f {
		f[i] = nil // do not retain terms across activations
	}
	e.frames = append(e.frames, f)
}

// Run attempts one activation of the clause against the caller's
// argument registers: head matchers first, then the body continuation
// chain, calling k once per solution. It returns k's stop signal (a cut
// in the body additionally sets *cut, which the engine's clause loop
// converts into failure of the remaining alternatives — the
// interpreter's exact barrier protocol). Bindings made on the trail are
// the caller's to undo; Run itself performs no checkpointing, so a
// failed head match leaves its partial bindings for the caller's
// trail.Undo, exactly like a failed term.Unify in the interpreter.
func (cl *Clause) Run(e *Env, args []term.Term, cut *bool, k func() bool) bool {
	fr := e.getFrame(cl.nvars)
	stop := cl.activate(e, fr, args, cut, NoMark, nil, k)
	e.putFrame(fr)
	return stop
}

// Mark names one literal of a clause body: Body indexes Source.Body
// (-1 names none) and Path holds the argument indices that lead from
// that body literal down into nested control constructs (',' and ';')
// to the literal meant.
type Mark struct {
	Body int
	Path []uint8
}

// NoMark names no literal.
var NoMark = Mark{Body: -1}

// Literal descends from g, an instantiated copy of the body literal
// mk.Body, along mk.Path.
func (mk Mark) Literal(g term.Term) term.Term {
	for _, i := range mk.Path {
		g = term.Deref(g).(*term.Compound).Args[i]
	}
	return term.Deref(g)
}

// RunPass is Run for one clause activation of a tabled producer pass
// (no cut barrier: a cut there is an error). Once the activation has
// instantiated the body literal named by mk, RunPass stores that
// literal's instance in *lit before the body runs, so the engine can
// recognize the call by identity (its semi-naive pruning point).
func (cl *Clause) RunPass(e *Env, args []term.Term, mk Mark, lit *term.Term, k func() bool) bool {
	fr := e.getFrame(cl.nvars)
	stop := cl.activate(e, fr, args, nil, mk, lit, k)
	e.putFrame(fr)
	return stop
}

func (cl *Clause) activate(e *Env, fr []term.Term, args []term.Term, cut *bool, mk Mark, lit *term.Term, k func() bool) bool {
	for i, match := range cl.head {
		if !match(e, fr, args[i]) {
			return false
		}
	}
	if len(cl.steps) == 0 {
		return k()
	}
	return cl.bodyChain(e, fr, cut, mk, lit, k)()
}

// bodyChain builds the clause body's continuation chain for one
// activation: goal terms are instantiated from the frame and each call
// step is wrapped in a closure that hands its goal to the engine with
// the next step as continuation. The engine backtracks into that
// continuation once per solution of the goal, so the chain enumerates
// the clause's derivations in standard SLD order.
//
// Goals and continuations are built once per activation and reused
// across backtracking re-entries — when goal i yields another solution,
// trail undo has already restored goal i+1's term to its unbound state,
// so re-instantiating it would only duplicate allocation. The
// interpreter builds its body chains the same way (engine activate);
// instantiating per step per re-entry instead costs O(solutions)
// allocations per goal.
func (cl *Clause) bodyChain(e *Env, fr []term.Term, cut *bool, mk Mark, lit *term.Term, k func() bool) func() bool {
	next := k
	for i := len(cl.steps) - 1; i >= 0; i-- {
		st := &cl.steps[i]
		switch st.kind {
		case stepCut:
			nk := next
			next = func() bool {
				if cut == nil {
					e.ThrowCut()
				}
				if stop := nk(); stop {
					return true
				}
				*cut = true
				return true
			}
		case stepFail:
			next = contFail
		default: // stepCall
			goal := term.InstantiateFrame(st.skel, fr)
			if st.body == mk.Body {
				*lit = mk.Literal(goal)
			}
			nk := next
			next = func() bool { return e.Call(goal, cut, nk) }
		}
	}
	return next
}

// contFail is the shared continuation for an explicit fail/false step:
// no solutions, not a stop.
func contFail() bool { return false }
