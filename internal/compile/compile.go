// Package compile translates loaded object programs into Go closures,
// in the continuation-passing style of PAIP chapter 12 scaled down to
// the needs of a tabling engine ("WAM-lite"): each predicate becomes a
// selection over compiled clauses, each clause a function taking the
// caller's argument registers plus a success continuation. Head
// unification is specialized per clause at compile time — known atoms
// and integers compare directly, known functors dispatch through the
// first-argument index whose keys are interned trie symbols (term.Sym,
// a uint32) so index probes never compare strings — and variables bind
// through the engine's trail so choice points remain plain trail
// checkpoints with undo-on-backtrack. Cut is a barrier token (*bool)
// threaded through the continuation chain, exactly the protocol of the
// interpreter's solveG, so compiled and interpreted frames compose
// freely on the same call stack.
//
// The package deliberately knows nothing about tabling: the engine
// keeps routing tabled calls through its call/answer tables and only
// resolves the SLD part of a producer pass — the clause bodies between
// two table operations — through compiled code. That mirrors how XSB
// pairs its WAM with the SLG table area: compilation accelerates
// resolution, tables keep their own disciplines.
package compile

import "xlp/internal/term"

// Source is one stored clause handed over by the engine: the parsed
// head, the flattened body conjunction, and the clause's source
// position (for deterministic selection order).
type Source struct {
	Head term.Term
	Body []term.Term
	Nth  int
}

// Index-key kinds for the first-argument index. KVar never appears in a
// bucket key; it marks clauses whose first head argument is a variable
// (they match every call and are merged into every bucket).
const (
	KVar uint8 = iota
	KAtom
	KInt
	KStruct
)

// Key is a first-argument index key over interned symbols: atom and
// functor names are term.Sym ids, so bucket lookup hashes three words
// and never touches the underlying strings.
type Key struct {
	Kind uint8
	Sym  term.Sym // KAtom: atom id; KStruct: functor id
	Num  int64    // KInt: value; KStruct: arity
}

// matcher specializes the unification of one head argument position. It
// reads the caller's argument a, writes first-occurrence variables into
// the frame fr, and trails any bindings it makes on e.Trail; the
// caller's trail checkpoint undoes them when the clause fails.
type matcher func(e *Env, fr []term.Term, a term.Term) bool

// step kinds of a compiled clause body. "true" conjuncts compile to
// nothing; the remaining control constructs (;, ->, \+, call/N) stay
// whole goals dispatched back to the engine, which already implements
// their semantics against the same cut-barrier protocol.
const (
	stepCall uint8 = iota // resolve an instantiated goal via Env.Call
	stepCut               // commit: consume the clause's cut barrier
	stepFail              // fail this derivation path
)

type step struct {
	kind uint8
	body int       // index of the source body literal (Source.Body)
	skel term.Term // stepCall: goal skeleton with term.Ref slots
}

// Clause is one compiled clause: per-argument head matchers plus a body
// continuation chain. Frame slots (term.Ref indices shared by head and
// body skeletons) hold the clause's variables for one activation.
type Clause struct {
	Nth   int
	nvars int
	head  []matcher
	steps []step

	headSkel []term.Term // head argument skeletons, for plans and tests
	key      Key         // first-argument index key
	keyVar   bool        // first head argument is a variable
}

// NVars reports the clause's frame size (distinct variables).
func (cl *Clause) NVars() int { return cl.nvars }

// Pred is one compiled predicate: its clauses in source order plus the
// first-argument index built over interned symbols.
type Pred struct {
	Indicator string
	Arity     int

	clauses  []*Clause
	indexed  bool
	buckets  map[Key][]*Clause
	varFirst []*Clause // clauses with variable first argument
}

// Clauses returns the compiled clauses in source order.
func (p *Pred) Clauses() []*Clause { return p.clauses }

// Predicate compiles a predicate's clauses into closure form. The
// result is immutable and reusable across queries; the engine caches it
// per predicate and invalidates on assert.
func Predicate(indicator string, arity int, clauses []Source) *Pred {
	p := &Pred{Indicator: indicator, Arity: arity}
	for _, src := range clauses {
		p.clauses = append(p.clauses, compileClause(src, arity))
	}
	if arity > 0 {
		p.buildIndex()
	}
	return p
}

// compileClause specializes one clause. Head and body skeletons share
// one variable numbering (first occurrence in preorder, head first), so
// a head matcher that captures an argument into a frame slot feeds the
// body goals that mention the same variable.
func compileClause(src Source, arity int) *Clause {
	idx := map[*term.Var]int{}
	headSkel := term.CompileSkeleton(src.Head, idx)
	cl := &Clause{Nth: src.Nth}
	if c, ok := headSkel.(*term.Compound); ok {
		cl.headSkel = c.Args
	}
	for i, g := range src.Body {
		d := term.Deref(g)
		if a, ok := d.(term.Atom); ok {
			switch a {
			case "true":
				continue
			case "!":
				cl.steps = append(cl.steps, step{kind: stepCut, body: i})
				continue
			case "fail", "false":
				cl.steps = append(cl.steps, step{kind: stepFail, body: i})
				continue
			}
		}
		cl.steps = append(cl.steps, step{kind: stepCall, body: i, skel: term.CompileSkeleton(g, idx)})
	}
	cl.nvars = len(idx)

	seen := make([]bool, cl.nvars)
	cl.head = make([]matcher, len(cl.headSkel))
	for i, argSkel := range cl.headSkel {
		cl.head[i] = matcherFor(argSkel, seen)
	}
	cl.key, cl.keyVar = clauseKey(cl.headSkel)
	return cl
}

// clauseKey computes the first-argument index key from the head
// argument skeletons.
func clauseKey(headSkel []term.Term) (Key, bool) {
	if len(headSkel) == 0 {
		return Key{}, false
	}
	switch a := headSkel[0].(type) {
	case term.Ref:
		return Key{Kind: KVar}, true
	case term.Atom:
		return Key{Kind: KAtom, Sym: term.Intern(string(a))}, false
	case term.Int:
		return Key{Kind: KInt, Num: int64(a)}, false
	case *term.Compound:
		return Key{Kind: KStruct, Sym: term.Intern(a.Functor), Num: int64(len(a.Args))}, false
	}
	return Key{}, true // unreachable: skeletons hold only the four kinds
}

// matcherFor compiles the matcher for one head (sub)term. seen tracks
// which frame slots have been written by matchers to the left, mirroring
// the skeleton's first-occurrence numbering: a variable's first
// occurrence is a plain register move (no binding, no trail entry), a
// repeated occurrence is full unification against the captured term.
func matcherFor(skel term.Term, seen []bool) matcher {
	switch t := skel.(type) {
	case term.Ref:
		slot := int(t)
		if !seen[slot] {
			seen[slot] = true
			return func(_ *Env, fr []term.Term, a term.Term) bool {
				fr[slot] = a
				return true
			}
		}
		return func(e *Env, fr []term.Term, a term.Term) bool {
			return term.Unify(fr[slot], a, e.Trail)
		}
	case term.Atom:
		want := t
		return func(e *Env, _ []term.Term, a term.Term) bool {
			switch d := term.Deref(a).(type) {
			case term.Atom:
				return d == want
			case *term.Var:
				e.Trail.Bind(d, want)
				return true
			}
			return false
		}
	case term.Int:
		want := t
		return func(e *Env, _ []term.Term, a term.Term) bool {
			switch d := term.Deref(a).(type) {
			case term.Int:
				return d == want
			case *term.Var:
				e.Trail.Bind(d, want)
				return true
			}
			return false
		}
	case *term.Compound:
		functor, arity := t.Functor, len(t.Args)
		subs := make([]matcher, arity)
		for i, s := range t.Args {
			subs[i] = matcherFor(s, seen)
		}
		build := t // write mode: construct the head term for an unbound caller
		return func(e *Env, fr []term.Term, a term.Term) bool {
			switch d := term.Deref(a).(type) {
			case *term.Compound:
				// Read mode: descend into the caller's structure.
				if d.Functor != functor || len(d.Args) != arity {
					return false
				}
				for i, sub := range subs {
					if !sub(e, fr, d.Args[i]) {
						return false
					}
				}
				return true
			case *term.Var:
				e.Trail.Bind(d, term.InstantiateFrame(build, fr))
				return true
			}
			return false
		}
	}
	return func(*Env, []term.Term, term.Term) bool { return false }
}

// buildIndex builds the first-argument index: a variable-first clause matches every call, so it
// joins every existing bucket and seeds every later one, interleaved in
// source order.
func (p *Pred) buildIndex() {
	p.indexed = true
	p.buckets = map[Key][]*Clause{}
	for _, cl := range p.clauses {
		if cl.keyVar {
			p.varFirst = append(p.varFirst, cl)
			for k := range p.buckets {
				p.buckets[k] = insertOrdered(p.buckets[k], cl)
			}
			continue
		}
		if _, ok := p.buckets[cl.key]; !ok {
			p.buckets[cl.key] = append([]*Clause{}, p.varFirst...)
		}
		p.buckets[cl.key] = insertOrdered(p.buckets[cl.key], cl)
	}
}

func insertOrdered(cls []*Clause, cl *Clause) []*Clause {
	cls = append(cls, cl)
	for i := len(cls) - 1; i > 0 && cls[i-1].Nth > cls[i].Nth; i-- {
		cls[i-1], cls[i] = cls[i], cls[i-1]
	}
	return cls
}

// Select returns the candidate clauses for a call with the given
// argument registers: the matching index bucket when the first argument
// is bound (keyed by interned symbol, one uint32 compare deep), the
// variable-first clauses when no bucket exists, all clauses otherwise.
func (p *Pred) Select(e *Env, args []term.Term) []*Clause {
	if !p.indexed || len(args) == 0 {
		return p.clauses
	}
	var k Key
	switch d := term.Deref(args[0]).(type) {
	case *term.Var:
		return p.clauses
	case term.Atom:
		k = Key{Kind: KAtom, Sym: e.intern(string(d))}
	case term.Int:
		k = Key{Kind: KInt, Num: int64(d)}
	case *term.Compound:
		k = Key{Kind: KStruct, Sym: e.intern(d.Functor), Num: int64(len(d.Args))}
	}
	if cls, ok := p.buckets[k]; ok {
		return cls
	}
	return p.varFirst
}
