package engine

// Semi-naive producer re-passes (Zhou, Sato & Shen, "Linear tabling
// strategies and optimizations", TPLP 2008). A producer re-runs its
// clauses until a fixpoint, and a naive re-pass re-reads every table it
// consumes from answer 0, re-deriving every answer combination the
// previous pass already derived. This file lets a re-pass skip those
// combinations, so only duplicate derivations disappear: tables, answer
// order, subgoals, producer runs and passes, and provenance are exactly
// those of the naive evaluation; Resolutions and BuiltinCalls fall.
//
// The rule has three parts.
//
// Pruning point. A clause of a tabled predicate has at most one: the
// last body literal that may read a table, provided it is a direct call
// of a tabled predicate (at the top level of the body or inside a
// branch of a disjunction, never in an if-then-else condition). A
// literal may read a table if it is a tabled call, calls a non-tabled
// predicate from which a tabled call, a variable goal or a
// goal-calling builtin is reachable, or is a goal-calling construct
// itself (call/N, findall/3, forall/2, aggregate_all/3, once/1, \+,
// ->). A clause gets a pruning point only when its body, and every
// non-tabled predicate reachable from it, uses nothing but ',', ';',
// calls and builtins that neither call goals nor have side effects
// (registered builtins are pure by Register's contract). The marking
// is computed once per clause for the whole program and recomputed
// after any program change (assert, retract, table declarations,
// builtin registration).
//
// Old answers. For each producer and each incomplete table it read,
// the consumer edge (subgoal.watchers) keeps a watermark: the smallest
// answer index that the producer's read loops over that table reached
// in its last pass (a loop that runs to the end reaches len(answers) at
// that moment). In the next pass an answer below the watermark is old.
// On a producer's first pass every answer is new, as is every answer
// once the program changed since the last pass began, and every answer
// of an incomplete table the last pass did not read. A complete table
// the last pass did not read while it was incomplete is all old: every
// loop over it in that pass enumerated the final answer set.
//
// Pruning. The machine counts the new answers the current derivation
// path of the running producer has read (Machine.snNew). At the
// pruning point, if that count is zero, only the call's new answers are
// iterated. This is safe because the same prefix ran in the previous
// pass: the clause's head and pure body are deterministic, and each
// answer the prefix read is old, so the previous pass's loop at the
// same position enumerated it (induction along the path; the first
// read's position is reached unconditionally). At the pruning point
// that pass joined the prefix with every old answer of the call, or,
// where it pruned there itself, with the ones new to it, the rest
// having been joined a pass earlier by the same argument. The
// continuation reads no table, so it derived then what it would derive
// now: every derivation a re-pass skips was made by an earlier pass,
// and only duplicate answers are skipped.
//
// Cost. The marking is computed per program, not per activation; the
// watermark lives on the existing consumer edge, the path count and the
// pruning literal on the Machine. Nothing is allocated per activation
// or per pass.

import (
	"xlp/internal/compile"
	"xlp/internal/term"
)

// watch is a consumer edge: the watermarks of one consumer (the key in
// the table's watchers map) over one table, for the consumer's current
// and previous pass. pass numbers are subgoal.snPass values.
type watch struct {
	pass, reached         int
	prevPass, prevReached int
}

// old returns the consumer's watermark from its previous pass (answers
// below it are old), or ok=false when that pass did not read the table
// while it was incomplete. A nil edge has no watermarks.
func (w *watch) old(c *subgoal) (old int, ok bool) {
	if w == nil {
		return 0, false
	}
	pass, reached := w.pass, w.reached
	if pass == c.snPass {
		// Already recorded in the running pass: the previous pass's
		// watermark has moved to prev.
		pass, reached = w.prevPass, w.prevReached
	}
	if pass != c.snPass-1 {
		return 0, false
	}
	return reached, true
}

// record notes that one of the consumer's read loops in its running
// pass ended at answer index end.
func (w *watch) record(c *subgoal, end int) {
	if w.pass != c.snPass {
		w.prevPass, w.prevReached = w.pass, w.reached
		w.pass, w.reached = c.snPass, end
	} else if end < w.reached {
		w.reached = end
	}
}

// beginPass starts a producer pass of sg: it brings the clause marks up
// to date, decides whether the previous pass's watermarks are usable
// and stamps the new pass. A program change during the pass makes the
// watermarks unusable for the rest of it (solveTabled compares snGen).
func (m *Machine) beginPass(sg *subgoal) {
	m.ensureMarks()
	sg.snPrev = sg.snDone && sg.snGen == m.progGen
	sg.snDone = false
	sg.snGen = m.progGen
	sg.snPass++
}

// programChanged invalidates the pruning marks and every producer's
// watermarks: a re-pass may not assume its previous pass ran against
// the same program.
func (m *Machine) programChanged() {
	m.progGen++
	m.snFresh = false
}

// effectBuiltins are the builtins with effects outside the derivation:
// clause store mutation and stream output. A clause that can reach one
// is never pruned, and SolveAll evaluates goals that can reach one
// sequentially.
var effectBuiltins = map[pkey]bool{
	{"assert", 1}:  true,
	{"asserta", 1}: true,
	{"assertz", 1}: true,
	{"retract", 1}: true,
	{"write", 1}:   true,
	{"print", 1}:   true,
	{"writeln", 1}: true,
	{"nl", 0}:      true,
	{"tab", 1}:     true,
}

// goalBuiltins are the builtins that call goals.
var goalBuiltins = map[pkey]bool{
	{"findall", 3}:       true,
	{"forall", 2}:        true,
	{"aggregate_all", 3}: true,
	{"once", 1}:          true,
}

// ensureMarks computes the pruning marks of every tabled clause if the
// program changed since they were last computed. Non-tabled predicates
// first get a summary (Pred.snReads, Pred.snImpure) as the least
// fixpoint over their clause bodies, so mutual recursion among helpers
// is summarized exactly.
func (m *Machine) ensureMarks() {
	if m.snFresh {
		return
	}
	for _, p := range m.preds {
		p.snReads, p.snImpure = false, false
	}
	for changed := true; changed; {
		changed = false
		for _, p := range m.preds {
			if p.Tabled || (p.snReads && p.snImpure) {
				continue
			}
			reads, impure := p.snReads, p.snImpure
			for _, cl := range p.Clauses {
				for _, g := range cl.Body {
					r, i := m.classify(g)
					reads, impure = reads || r, impure || i
				}
			}
			if reads != p.snReads || impure != p.snImpure {
				p.snReads, p.snImpure = reads, impure
				changed = true
			}
		}
	}
	for _, p := range m.preds {
		for _, cl := range p.Clauses {
			cl.sn = compile.NoMark
			if p.Tabled {
				cl.sn = m.markClause(cl.Body)
			}
		}
	}
	m.snFresh = true
}

// classify reports whether goal may read a table and whether it (or
// anything it reaches) falls outside the prunable fragment.
func (m *Machine) classify(goal term.Term) (reads, impure bool) {
	goal = term.Deref(goal)
	f, args, ok := term.FunctorArity(goal)
	if !ok {
		return true, true // variable or number goal
	}
	switch {
	case len(args) == 0 && (f == "true" || f == "fail" || f == "false"):
		return false, false
	case len(args) == 0 && f == "!":
		return false, true
	case len(args) == 2 && f == ",":
		r1, i1 := m.classify(args[0])
		r2, i2 := m.classify(args[1])
		return r1 || r2, i1 || i2
	case len(args) == 2 && f == ";":
		if isITE(args[0]) {
			return true, true
		}
		r1, i1 := m.classify(args[0])
		r2, i2 := m.classify(args[1])
		return r1 || r2, i1 || i2
	case len(args) == 2 && f == "->",
		len(args) == 1 && (f == "\\+" || f == "not"),
		len(args) >= 1 && f == "call":
		return true, true
	}
	k := pkey{name: f, arity: len(args)}
	if _, ok := m.builtins[k]; ok {
		if goalBuiltins[k] {
			return true, true
		}
		return false, effectBuiltins[k]
	}
	p, ok := m.preds[k]
	if !ok {
		return false, false // undefined: throws when called
	}
	if p.Tabled {
		return true, false
	}
	return p.snReads, p.snImpure
}

func isITE(t term.Term) bool {
	c, ok := term.Deref(t).(*term.Compound)
	return ok && c.Functor == "->" && len(c.Args) == 2
}

// markClause finds a tabled clause's pruning point (see the file
// comment), or compile.NoMark.
func (m *Machine) markClause(body []term.Term) compile.Mark {
	for _, g := range body {
		if _, impure := m.classify(g); impure {
			return compile.NoMark
		}
	}
	for i := len(body) - 1; i >= 0; i-- {
		if reads, _ := m.classify(body[i]); !reads {
			continue
		}
		path, ok := m.prunePath(body[i], nil)
		if !ok {
			return compile.NoMark
		}
		return compile.Mark{Body: i, Path: path}
	}
	return compile.NoMark
}

// prunePath descends from a table-reading literal to its last
// table-reading sub-literal through ',' and ';', and accepts it if it
// is a direct tabled call with arguments (the pruning literal is found
// by pointer identity, which atoms do not have).
func (m *Machine) prunePath(g term.Term, path []uint8) ([]uint8, bool) {
	g = term.Deref(g)
	c, ok := g.(*term.Compound)
	if !ok {
		return nil, false
	}
	if len(c.Args) == 2 && (c.Functor == "," || c.Functor == ";") {
		// In both, the right operand is textually last: the pruning
		// point is there if it reads at all.
		if reads, _ := m.classify(c.Args[1]); reads {
			return m.prunePath(c.Args[1], append(path, 1))
		}
		return m.prunePath(c.Args[0], append(path, 0))
	}
	if _, isBuiltin := m.builtins[pkey{name: c.Functor, arity: len(c.Args)}]; isBuiltin {
		return nil, false
	}
	if p, ok := m.preds[pkey{name: c.Functor, arity: len(c.Args)}]; ok && p.Tabled {
		return path, true
	}
	return nil, false
}
