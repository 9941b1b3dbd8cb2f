// Package bddprop implements groundness analysis over the Prop domain
// with boolean formulas represented as ROBDDs, in the style of the
// Toupie-based analyzer of Corsini et al. ([10] in the paper) that §4
// compares the enumerative representation against. It evaluates
// bottom-up: each predicate's success formula is a BDD over its argument
// positions, iterated to the least fixpoint over the clauses.
package bddprop

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xlp/internal/bdd"
	"xlp/internal/engine"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Result is the outcome for one predicate.
type Result struct {
	Indicator  string
	Arity      int
	Success    bdd.Ref
	GroundArgs []bool
}

// Analysis is a full run.
type Analysis struct {
	Results      map[string]*Result
	Manager      *bdd.Manager
	PreprocTime  time.Duration
	AnalysisTime time.Duration
	Iterations   int
	Nodes        int // BDD nodes allocated (the representation-size metric)
	Timeline     *obs.Timeline
}

// Total returns the overall time.
func (a *Analysis) Total() time.Duration { return a.PreprocTime + a.AnalysisTime }

type clause struct {
	head term.Term
	body []term.Term
	vars []*term.Var
	pos  map[*term.Var]int // clause var -> BDD variable index
	// tempBase is the first BDD variable index for callee-argument
	// temporaries; maxTemp the largest callee arity.
	tempBase int
}

type pred struct {
	ind     string
	arity   int
	clauses []*clause
	success bdd.Ref
}

// Analyze runs the analysis on a Prolog program.
func Analyze(src string) (*Analysis, error) {
	return AnalyzeWith(context.Background(), src, nil)
}

// AnalyzeWith is Analyze with cooperative cancellation and a phase
// timeline. Once ctx ends the run fails with engine.ErrCanceled or
// engine.ErrDeadline; the context is polled once per predicate per
// fixpoint iteration. A non-nil tl records parse/load/solve/collect
// spans (clause preparation is the load phase; this analyzer has no
// transform step).
func AnalyzeWith(ctx context.Context, src string, tl *obs.Timeline) (*Analysis, error) {
	defer tl.End()
	t0 := time.Now()
	tl.Start("parse")
	parsed, err := prolog.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	tl.Start("load")
	m := bdd.New()
	preds := map[string]*pred{}
	for _, c := range parsed {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue
		}
		ind, ok := term.Indicator(head)
		if !ok {
			return nil, fmt.Errorf("bddprop: non-callable head %v", head)
		}
		_, args, _ := term.FunctorArity(head)
		p := preds[ind]
		if p == nil {
			p = &pred{ind: ind, arity: len(args), success: bdd.False}
			preds[ind] = p
		}
		cl := &clause{head: head, body: prolog.Conjuncts(body), pos: map[*term.Var]int{}}
		collect := func(t term.Term) {
			for _, v := range term.Vars(t) {
				if _, ok := cl.pos[v]; !ok {
					cl.pos[v] = p.arity + len(cl.vars)
					cl.vars = append(cl.vars, v)
				}
			}
		}
		collect(head)
		for _, g := range cl.body {
			collect(g)
		}
		cl.tempBase = p.arity + len(cl.vars)
		p.clauses = append(p.clauses, cl)
	}
	a := &Analysis{Results: map[string]*Result{}, Manager: m, PreprocTime: time.Since(t0), Timeline: tl}

	tl.Start("solve")
	t1 := time.Now()
	az := &analyzer{m: m, preds: preds}
	for {
		a.Iterations++
		changed := false
		for _, ind := range sortedKeys(preds) {
			if err := engine.CtxErr(ctx); err != nil {
				return nil, err
			}
			p := preds[ind]
			acc := p.success
			for _, cl := range p.clauses {
				acc = m.Or(acc, az.clauseBDD(p, cl))
			}
			if acc != p.success {
				p.success = acc
				changed = true
			}
		}
		if !changed {
			break
		}
		if a.Iterations > 100_000 {
			return nil, fmt.Errorf("bddprop: fixpoint runaway")
		}
	}
	tl.Start("collect")
	for ind, p := range preds {
		r := &Result{Indicator: ind, Arity: p.arity, Success: p.success,
			GroundArgs: make([]bool, p.arity)}
		for i := 0; i < p.arity; i++ {
			r.GroundArgs[i] = m.CertainlyTrue(p.success, i)
		}
		a.Results[ind] = r
	}
	a.Nodes = m.Size()
	a.AnalysisTime = time.Since(t1)
	return a, nil
}

func sortedKeys(m map[string]*pred) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

type analyzer struct {
	m     *bdd.Manager
	preds map[string]*pred
}

// groundness returns the BDD for "t is ground" under the clause layout.
func (az *analyzer) groundness(cl *clause, t term.Term) bdd.Ref {
	out := bdd.True
	for _, v := range term.Vars(t) {
		out = az.m.And(out, az.m.Var(cl.pos[v]))
	}
	return out
}

// clauseBDD computes the clause's contribution to the head predicate's
// success formula: the body formula with clause-local variables
// projected out, over argument positions 0..arity-1.
func (az *analyzer) clauseBDD(p *pred, cl *clause) bdd.Ref {
	m := az.m
	f := bdd.True
	_, hargs, _ := term.FunctorArity(cl.head)
	for i, t := range hargs {
		f = m.And(f, m.Xnor(m.Var(i), az.groundness(cl, t)))
	}
	f = az.goals(cl, cl.body, f)
	// Project out everything above the argument block.
	for _, v := range cl.vars {
		f = m.Exists(f, cl.pos[v])
	}
	return f
}

func (az *analyzer) goals(cl *clause, gs []term.Term, f bdd.Ref) bdd.Ref {
	for _, g := range gs {
		f = az.goal(cl, g, f)
		if f == bdd.False {
			return f
		}
	}
	return f
}

func (az *analyzer) goal(cl *clause, g term.Term, f bdd.Ref) bdd.Ref {
	m := az.m
	fn, args, ok := term.FunctorArity(term.Deref(g))
	if !ok {
		return f
	}
	switch {
	case fn == "," && len(args) == 2:
		return az.goals(cl, []term.Term{args[0], args[1]}, f)
	case fn == ";" && len(args) == 2:
		left := args[0]
		if ite, ok := term.Deref(left).(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
			left = term.Comp(",", ite.Args[0], ite.Args[1])
		}
		return m.Or(az.goal(cl, left, f), az.goal(cl, args[1], f))
	case fn == "->" && len(args) == 2:
		return az.goals(cl, []term.Term{args[0], args[1]}, f)
	case (fn == "\\+" || fn == "not") && len(args) == 1,
		fn == "!" && len(args) == 0, fn == "true" && len(args) == 0,
		fn == "call" && len(args) == 1:
		return f
	case (fn == "fail" || fn == "false") && len(args) == 0:
		return bdd.False
	case fn == "=" && len(args) == 2:
		return m.And(f, az.absUnify(cl, args[0], args[1]))
	}
	if c, handled := az.builtin(cl, fn, args); handled {
		return m.And(f, c)
	}
	ind, _ := term.Indicator(g)
	callee, defined := az.preds[ind]
	if !defined {
		return bdd.False
	}
	k := len(args)
	base := cl.tempBase
	for i, s := range args {
		f = m.And(f, m.Xnor(m.Var(base+i), az.groundness(cl, s)))
	}
	ren := map[int]int{}
	for i := 0; i < k; i++ {
		ren[i] = base + i
	}
	f = m.And(f, m.Rename(callee.success, ren))
	for i := 0; i < k; i++ {
		f = m.Exists(f, base+i)
	}
	return f
}

func (az *analyzer) absUnify(cl *clause, t1, t2 term.Term) bdd.Ref {
	m := az.m
	a, b := term.Deref(t1), term.Deref(t2)
	if _, ok := a.(*term.Var); !ok {
		if _, ok := b.(*term.Var); ok {
			a, b = b, a
		}
	}
	if av, ok := a.(*term.Var); ok {
		return m.Xnor(m.Var(cl.pos[av]), az.groundness(cl, b))
	}
	switch at := a.(type) {
	case term.Atom:
		if bt, ok := b.(term.Atom); ok && at == bt {
			return bdd.True
		}
		return bdd.False
	case term.Int:
		if bt, ok := b.(term.Int); ok && at == bt {
			return bdd.True
		}
		return bdd.False
	case *term.Compound:
		bt, ok := b.(*term.Compound)
		if !ok || bt.Functor != at.Functor || len(bt.Args) != len(at.Args) {
			return bdd.False
		}
		out := bdd.True
		for i := range at.Args {
			out = m.And(out, az.absUnify(cl, at.Args[i], bt.Args[i]))
		}
		return out
	}
	return bdd.False
}

// builtin mirrors the abstraction tables of the prop and gaia packages;
// the differential tests keep the three in agreement.
func (az *analyzer) builtin(cl *clause, f string, args []term.Term) (bdd.Ref, bool) {
	m := az.m
	groundAll := func(ts ...term.Term) bdd.Ref {
		out := bdd.True
		for _, t := range ts {
			out = m.And(out, az.groundness(cl, t))
		}
		return out
	}
	switch fmt.Sprintf("%s/%d", f, len(args)) {
	case "is/2", "</2", ">/2", "=</2", ">=/2", "=:=/2", "=\\=/2",
		"succ/2", "plus/3", "between/3",
		"name/2", "atom_codes/2", "atom_chars/2", "number_codes/2",
		"atom_length/2", "char_code/2",
		"ground/1", "atom/1", "atomic/1", "number/1", "integer/1", "float/1":
		return groundAll(args...), true
	case "functor/3":
		return groundAll(args[1], args[2]), true
	case "arg/3":
		gt := az.groundness(cl, args[1])
		ga := az.groundness(cl, args[2])
		return m.And(groundAll(args[0]), m.Implies(gt, ga)), true
	case "=../2":
		return m.Xnor(az.groundness(cl, args[0]), az.groundness(cl, args[1])), true
	case "copy_term/2":
		return m.Implies(az.groundness(cl, args[0]), az.groundness(cl, args[1])), true
	case "length/2":
		return groundAll(args[1]), true
	case "sort/2", "msort/2", "reverse/2":
		return m.Xnor(az.groundness(cl, args[0]), az.groundness(cl, args[1])), true
	case "var/1", "nonvar/1", "==/2", "\\==/2", "@</2", "@>/2",
		"@=</2", "@>=/2", "\\=/2",
		"write/1", "print/1", "writeln/1", "nl/0", "tab/1",
		"read/1", "assert/1", "asserta/1", "assertz/1", "retract/1",
		"findall/3", "bagof/3", "setof/3", "halt/0":
		return bdd.True, true
	}
	return bdd.True, false
}
