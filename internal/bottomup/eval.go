// Package bottomup implements a bottom-up deductive-database engine in
// the spirit of Coral, the comparison system in the paper's §7: naive and
// semi-naive fixpoint evaluation of definite logic programs, plus the
// Magic-sets transformation for goal-directed evaluation.
//
// The engine doubles as an independent oracle for the tabled engine: both
// compute the same minimal models, by entirely different algorithms, and
// the test suite checks them against each other on random programs.
package bottomup

import (
	"fmt"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Builtin evaluates a built-in literal during rule bodies: it must call k
// for every solution with bindings trailed on tr and restore the trail
// before returning.
type Builtin func(args []term.Term, tr *term.Trail, k func())

// Rule is a clause Head :- Body.
type Rule struct {
	Head term.Term
	Body []term.Term
}

// relation stores the derived facts of one predicate, split into the
// semi-naive frontier sets.
type relation struct {
	older  []term.Term // facts known before the current iteration
	recent []term.Term // facts first derived in the previous iteration
	keys   map[string]struct{}
	bytes  int
}

func (r *relation) all() []term.Term {
	out := make([]term.Term, 0, len(r.older)+len(r.recent))
	out = append(out, r.older...)
	out = append(out, r.recent...)
	return out
}

// Limits bound evaluation.
type Limits struct {
	MaxFacts int // total derived facts (0 = default 5e6)
	MaxIters int // fixpoint iterations (0 = default 1e6)
}

func (l Limits) maxFacts() int {
	if l.MaxFacts <= 0 {
		return 5_000_000
	}
	return l.MaxFacts
}

func (l Limits) maxIters() int {
	if l.MaxIters <= 0 {
		return 1_000_000
	}
	return l.MaxIters
}

// Stats reports evaluation counters.
type Stats struct {
	Iterations int
	Facts      int
	Joins      int // body-literal match attempts
	TableBytes int
}

// System is a program plus its derived facts.
type System struct {
	Limits Limits

	rules    []*Rule
	rels     map[string]*relation
	builtins map[string]Builtin
	stats    Stats
}

// New returns an empty system with the '=' builtin installed.
func New() *System {
	s := &System{
		rels:     map[string]*relation{},
		builtins: map[string]Builtin{},
	}
	s.Builtin("=/2", func(args []term.Term, tr *term.Trail, k func()) {
		mark := tr.Mark()
		if term.Unify(args[0], args[1], tr) {
			k()
		}
		tr.Undo(mark)
	})
	s.Builtin("true/0", func(args []term.Term, tr *term.Trail, k func()) { k() })
	return s
}

// Builtin registers a builtin relation.
func (s *System) Builtin(indicator string, b Builtin) { s.builtins[indicator] = b }

// Stats returns a copy of the counters.
func (s *System) Stats() Stats { return s.stats }

// Consult parses a Prolog program and loads every clause. Facts become
// initial tuples; rules join the rule set. ':- table' directives are
// ignored (everything is tabled, in effect, in a bottom-up engine).
func (s *System) Consult(src string) error {
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		return err
	}
	return s.AddClauses(clauses)
}

// AddClauses loads pre-parsed clauses.
func (s *System) AddClauses(clauses []term.Term) error {
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue // ignore directives
		}
		if _, ok := term.Indicator(head); !ok {
			return fmt.Errorf("bottomup: non-callable head %v", head)
		}
		goals := prolog.Conjuncts(body)
		if len(goals) == 1 && term.Equal(goals[0], term.Atom("true")) {
			s.addFact(head)
			continue
		}
		s.rules = append(s.rules, &Rule{Head: head, Body: goals})
	}
	return nil
}

// AddRule adds a single rule.
func (s *System) AddRule(head term.Term, body ...term.Term) {
	s.rules = append(s.rules, &Rule{Head: head, Body: body})
}

// AddFact inserts an initial fact.
func (s *System) AddFact(f term.Term) { s.addFact(f) }

func (s *System) rel(ind string) *relation {
	r, ok := s.rels[ind]
	if !ok {
		r = &relation{keys: map[string]struct{}{}}
		s.rels[ind] = r
	}
	return r
}

// addFact inserts a (detached copy of a) fact into the recent frontier;
// reports whether it was new.
func (s *System) addFact(f term.Term) bool {
	ind, _ := term.Indicator(f)
	r := s.rel(ind)
	key := term.Canonical(f)
	if _, dup := r.keys[key]; dup {
		return false
	}
	r.keys[key] = struct{}{}
	fact, _ := term.Detach(f)
	r.recent = append(r.recent, fact)
	r.bytes += len(key)
	s.stats.Facts++
	s.stats.TableBytes += len(key)
	return true
}

// Facts returns the derived facts of a predicate (detached, stable order
// of first derivation).
func (s *System) Facts(indicator string) []term.Term {
	r, ok := s.rels[indicator]
	if !ok {
		return nil
	}
	return r.all()
}

// Naive runs naive fixpoint iteration: every rule is re-evaluated against
// the full database each round until no new facts appear.
func (s *System) Naive() (iterations int, err error) {
	defer s.flatten()
	s.flatten()
	for {
		iterations++
		s.stats.Iterations++
		if iterations > s.Limits.maxIters() {
			return iterations, fmt.Errorf("bottomup: iteration limit exceeded")
		}
		added := false
		for _, r := range s.rules {
			if err := s.evalRuleAll(r, &added); err != nil {
				return iterations, err
			}
		}
		s.flatten()
		if !added {
			return iterations, nil
		}
	}
}

// SemiNaive runs semi-naive (delta) iteration: each round evaluates, for
// every rule and every derived body literal, a version of the rule in
// which that literal ranges over the facts new in the previous round —
// the "delta-sets, in deductive database terms" that the paper credits
// for the efficiency of the enumerative representation (§4).
func (s *System) SemiNaive() (iterations int, err error) {
	// Round 0: rules with no derived body literal (all builtins) fire once.
	for _, r := range s.rules {
		if s.derivedPositions(r) == nil {
			added := false
			if err := s.evalRuleAll(r, &added); err != nil {
				return 0, err
			}
		}
	}
	for {
		iterations++
		s.stats.Iterations++
		if iterations > s.Limits.maxIters() {
			return iterations, fmt.Errorf("bottomup: iteration limit exceeded")
		}
		var newFacts []term.Term
		collect := func(h term.Term) {
			fact, _ := term.Detach(h)
			newFacts = append(newFacts, fact)
		}
		for _, r := range s.rules {
			for _, pos := range s.derivedPositions(r) {
				if err := s.evalRuleDelta(r, pos, collect); err != nil {
					return iterations, err
				}
			}
		}
		// Advance the frontier: recent -> older, new -> recent.
		for _, rel := range s.rels {
			rel.older = append(rel.older, rel.recent...)
			rel.recent = nil
		}
		added := false
		for _, f := range newFacts {
			if s.addFact(f) {
				added = true
			}
		}
		if !added {
			return iterations, nil
		}
	}
}

// flatten merges the recent frontier into older (used by naive mode,
// which does not track deltas).
func (s *System) flatten() {
	for _, rel := range s.rels {
		rel.older = append(rel.older, rel.recent...)
		rel.recent = nil
	}
}

// derivedPositions lists body positions that refer to derived (non-
// builtin) predicates.
func (s *System) derivedPositions(r *Rule) []int {
	var out []int
	for i, g := range r.Body {
		ind, ok := term.Indicator(g)
		if !ok {
			continue
		}
		if _, isB := s.builtins[ind]; !isB {
			out = append(out, i)
		}
	}
	return out
}

// evalRuleAll evaluates a rule with every literal against the full
// database, inserting derived heads immediately (naive mode).
func (s *System) evalRuleAll(r *Rule, added *bool) error {
	head, body := renameRule(r)
	var tr term.Trail
	var failure error
	s.join(body, &tr, nil, -1, func() {
		if s.stats.Facts >= s.Limits.maxFacts() {
			failure = fmt.Errorf("bottomup: fact limit exceeded (%d)", s.Limits.maxFacts())
			return
		}
		if s.addFact(head) {
			*added = true
		}
	})
	return failure
}

// evalRuleDelta evaluates the version of the rule in which body literal
// deltaPos ranges over recent facts only.
func (s *System) evalRuleDelta(r *Rule, deltaPos int, emit func(term.Term)) error {
	head, body := renameRule(r)
	var tr term.Trail
	var failure error
	s.join(body, &tr, nil, deltaPos, func() {
		if s.stats.Facts+1 >= s.Limits.maxFacts() {
			failure = fmt.Errorf("bottomup: fact limit exceeded (%d)", s.Limits.maxFacts())
			return
		}
		emit(head)
	})
	return failure
}

// join matches body literals left-to-right. Literal deltaPos (if >= 0)
// ranges over the recent frontier only; all others over older+recent.
func (s *System) join(body []term.Term, tr *term.Trail, _ []term.Term, deltaPos int, k func()) {
	s.joinFrom(body, 0, tr, deltaPos, k)
}

func (s *System) joinFrom(body []term.Term, i int, tr *term.Trail, deltaPos int, k func()) {
	if i == len(body) {
		k()
		return
	}
	g := term.Deref(body[i])
	ind, ok := term.Indicator(g)
	if !ok {
		panic(fmt.Sprintf("bottomup: non-callable body literal %v", g))
	}
	if b, isB := s.builtins[ind]; isB {
		_, args, _ := term.FunctorArity(g)
		b(args, tr, func() {
			s.joinFrom(body, i+1, tr, deltaPos, k)
		})
		return
	}
	rel, exists := s.rels[ind]
	if !exists {
		return
	}
	var facts []term.Term
	if i == deltaPos {
		// recent facts were moved to older at frontier advance; the
		// "recent" view for delta evaluation is the last segment — we
		// keep it separately via recentMark (see SemiNaive): here recent
		// still holds the previous round's additions.
		facts = rel.recent
	} else {
		facts = rel.all()
	}
	for _, f := range facts {
		s.stats.Joins++
		mark := tr.Mark()
		if fresh, _ := term.Detach(f); term.Unify(g, fresh, tr) {
			s.joinFrom(body, i+1, tr, deltaPos, k)
		}
		tr.Undo(mark)
	}
}

func renameRule(r *Rule) (head term.Term, body []term.Term) {
	mm := map[*term.Var]*term.Var{}
	head = term.Rename(r.Head, mm)
	body = make([]term.Term, len(r.Body))
	for i, g := range r.Body {
		body[i] = term.Rename(g, mm)
	}
	return head, body
}

// TableBytes reports the canonical-bytes size of all stored facts.
func (s *System) TableBytes() int { return s.stats.TableBytes }
