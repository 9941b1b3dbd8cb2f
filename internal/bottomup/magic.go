package bottomup

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/term"
)

// Magic-sets transformation (Bancilhon et al. [3], Beeri & Ramakrishnan
// [4] in the paper's bibliography). Given a program and a query, it
// produces an adorned program whose bottom-up evaluation derives only
// facts relevant to the query — the transformation the paper's §3.1
// notes is subsumed, for free, by the call tables of a tabled engine.

// MagicProgram is the result of the transformation.
type MagicProgram struct {
	Rules []*Rule     // adorned rules plus magic rules
	Seeds []term.Term // initial magic facts
	Query term.Term   // the rewritten (adorned) query literal
}

// adornment is a string over 'b' (bound) and 'f' (free), one per argument.
func adornmentOf(args []term.Term, bound map[*term.Var]bool) string {
	var sb strings.Builder
	for _, a := range args {
		if allBound(a, bound) {
			sb.WriteByte('b')
		} else {
			sb.WriteByte('f')
		}
	}
	return sb.String()
}

func allBound(t term.Term, bound map[*term.Var]bool) bool {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return bound[t]
	case *term.Compound:
		for _, a := range t.Args {
			if !allBound(a, bound) {
				return false
			}
		}
	}
	return true
}

func markBound(t term.Term, bound map[*term.Var]bool) {
	for _, v := range term.Vars(t) {
		bound[v] = true
	}
}

func adornedName(name, ad string) string {
	if !strings.Contains(ad, "b") {
		return name // fully-free adornment: no specialization useful
	}
	return name + "__" + ad
}

func magicName(name, ad string) string { return "m__" + name + "__" + ad }

// boundArgs selects the arguments at 'b' positions.
func boundArgs(args []term.Term, ad string) []term.Term {
	var out []term.Term
	for i, c := range ad {
		if c == 'b' {
			out = append(out, args[i])
		}
	}
	return out
}

// Magic transforms the clauses of a program for the given query goal.
// IDB predicates are those defined by at least one proper rule; facts-
// only (EDB) predicates and builtins are left unadorned. The sideways
// information passing strategy is left-to-right, matching the engine's
// selection order.
func Magic(rules []*Rule, facts []term.Term, builtins map[string]Builtin, query term.Term) (*MagicProgram, error) {
	byPred := map[string][]*Rule{}
	for _, r := range rules {
		ind, ok := term.Indicator(r.Head)
		if !ok {
			return nil, fmt.Errorf("magic: non-callable rule head %v", r.Head)
		}
		byPred[ind] = append(byPred[ind], r)
	}
	isIDB := func(ind string) bool { _, ok := byPred[ind]; return ok }

	out := &MagicProgram{}

	qName, qArgs, ok := term.FunctorArity(query)
	if !ok {
		return nil, fmt.Errorf("magic: non-callable query %v", query)
	}
	qInd, _ := term.Indicator(query)
	if !isIDB(qInd) {
		// Query over EDB or builtin: nothing to transform.
		out.Rules = rules
		out.Query = query
		return out, nil
	}
	qAd := adornmentOf(qArgs, map[*term.Var]bool{})

	type job struct{ ind, ad string }
	seen := map[job]bool{}
	var work []job
	push := func(ind, ad string) {
		j := job{ind, ad}
		if !seen[j] {
			seen[j] = true
			work = append(work, j)
		}
	}
	push(qInd, qAd)

	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		for _, r := range byPred[j.ind] {
			head, body := renameRule(r)
			hName, hArgs, _ := term.FunctorArity(head)
			bound := map[*term.Var]bool{}
			for i, c := range j.ad {
				if c == 'b' {
					markBound(hArgs[i], bound)
				}
			}
			magicHead := term.NewCompound(magicName(hName, j.ad), boundArgs(hArgs, j.ad)...)
			var newBody []term.Term
			if strings.Contains(j.ad, "b") {
				newBody = append(newBody, magicHead)
			}
			for _, lit := range body {
				lName, lArgs, ok := term.FunctorArity(lit)
				if !ok {
					return nil, fmt.Errorf("magic: non-callable literal %v", lit)
				}
				lInd, _ := term.Indicator(lit)
				if _, isB := builtins[lInd]; isB || !isIDB(lInd) {
					// Builtins and EDB literals pass through and bind
					// their variables for subsequent literals.
					newBody = append(newBody, lit)
					markBound(lit, bound)
					continue
				}
				lAd := adornmentOf(lArgs, bound)
				if strings.Contains(lAd, "b") {
					// magic rule: m_q^a(bound args) :- <prefix so far>.
					mHead := term.NewCompound(magicName(lName, lAd), boundArgs(lArgs, lAd)...)
					prefix := append([]term.Term{}, newBody...)
					if len(prefix) == 0 {
						prefix = []term.Term{term.Atom("true")}
					}
					mh, mb := renameRule(&Rule{Head: mHead, Body: prefix})
					out.Rules = append(out.Rules, &Rule{Head: mh, Body: mb})
				}
				push(lInd, lAd)
				newBody = append(newBody, term.NewCompound(adornedName(lName, lAd), lArgs...))
				markBound(lit, bound)
			}
			adHead := term.NewCompound(adornedName(hName, j.ad), hArgs...)
			out.Rules = append(out.Rules, &Rule{Head: adHead, Body: newBody})
		}
	}

	if strings.Contains(qAd, "b") {
		out.Seeds = append(out.Seeds,
			term.NewCompound(magicName(qName, qAd), boundArgs(qArgs, qAd)...))
	}
	out.Query = term.NewCompound(adornedName(qName, qAd), qArgs...)

	// Deterministic rule order helps tests and debugging.
	sort.SliceStable(out.Rules, func(i, k int) bool {
		hi, _ := term.Indicator(out.Rules[i].Head)
		hk, _ := term.Indicator(out.Rules[k].Head)
		return hi < hk
	})
	_ = facts
	return out, nil
}

// AnswerQuery runs the magic-transformed program to fixpoint in a fresh
// system seeded with the given EDB facts, then returns the instances of
// the query derived. The semi-naive strategy is used.
func AnswerQuery(rules []*Rule, facts []term.Term, registerBuiltins func(*System), query term.Term) ([]term.Term, *System, error) {
	probe := New()
	if registerBuiltins != nil {
		registerBuiltins(probe)
	}
	mp, err := Magic(rules, facts, probe.builtins, query)
	if err != nil {
		return nil, nil, err
	}
	sys := New()
	if registerBuiltins != nil {
		registerBuiltins(sys)
	}
	for _, f := range facts {
		sys.AddFact(f)
	}
	for _, seed := range mp.Seeds {
		sys.AddFact(seed)
	}
	for _, r := range mp.Rules {
		sys.rules = append(sys.rules, r)
	}
	if _, err := sys.SemiNaive(); err != nil {
		return nil, sys, err
	}
	// Match derived facts against the adorned query.
	qInd, _ := term.Indicator(mp.Query)
	var answers []term.Term
	var tr term.Trail
	for _, f := range sys.Facts(qInd) {
		mark := tr.Mark()
		if fresh, _ := term.Detach(f); term.Unify(mp.Query, fresh, &tr) {
			ans, _ := term.Detach(query)
			answers = append(answers, ans)
		}
		tr.Undo(mark)
	}
	return answers, sys, nil
}
