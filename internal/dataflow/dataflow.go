// Package dataflow reproduces the paper's §7 comparison: demand
// interprocedural dataflow analysis formulated as queries over a logic
// database of control-flow facts (after Reps [31, 32]), evaluated three
// ways — goal-directed on the tabled engine, bottom-up to the full
// model, and bottom-up after the Magic-sets transformation. The paper
// reports Coral (bottom-up) about 6x slower than a special-purpose C
// implementation and XSB about an order of magnitude faster than Coral
// on such queries.
//
// The workload is the classic possibly-uninitialized-variable demand
// query over synthetic multi-procedure control-flow graphs:
//
//	reach_wo_def(P, N, V): node N of procedure P is reachable from P's
//	    entry along a path containing no definition of V.
//	uninit(P, N, V): V may be used uninitialized at N.
package dataflow

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"xlp/internal/bottomup"
	"xlp/internal/engine"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Config sizes the synthetic control-flow graph.
type Config struct {
	Procs        int // number of procedures
	NodesPerProc int // CFG nodes per procedure
	Vars         int // variables per procedure
	Seed         int64
}

// Generate builds the fact base and rules as Prolog source. Each
// procedure gets a roughly linear CFG with extra forward/back edges,
// random defs and uses; nodef facts are materialized so the rules stay
// negation-free (evaluable on both engines).
func Generate(cfg Config) string {
	r := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	sb.WriteString(`
:- table reach_wo_def/3, uninit/3.
reach_wo_def(P, N, V) :- entry(P, N), varof(P, V).
reach_wo_def(P, M, V) :- reach_wo_def(P, N, V), nodef(P, N, V), edge(P, N, M).
uninit(P, N, V) :- use(P, N, V), reach_wo_def(P, N, V).
`)
	for p := 0; p < cfg.Procs; p++ {
		proc := fmt.Sprintf("p%d", p)
		fmt.Fprintf(&sb, "entry(%s, n0).\n", proc)
		defs := map[[2]int]bool{}
		for n := 0; n < cfg.NodesPerProc-1; n++ {
			fmt.Fprintf(&sb, "edge(%s, n%d, n%d).\n", proc, n, n+1)
			if r.Intn(4) == 0 && n >= 2 {
				fmt.Fprintf(&sb, "edge(%s, n%d, n%d).\n", proc, n, r.Intn(n))
			}
			if r.Intn(5) == 0 {
				fmt.Fprintf(&sb, "edge(%s, n%d, n%d).\n", proc, n,
					n+1+r.Intn(cfg.NodesPerProc-n-1))
			}
		}
		for v := 0; v < cfg.Vars; v++ {
			fmt.Fprintf(&sb, "varof(%s, v%d).\n", proc, v)
			// each variable is defined at a few random nodes
			for d := 0; d < 1+r.Intn(3); d++ {
				n := r.Intn(cfg.NodesPerProc)
				if !defs[[2]int{n, v}] {
					defs[[2]int{n, v}] = true
					fmt.Fprintf(&sb, "def(%s, n%d, v%d).\n", proc, n, v)
				}
			}
			// and used at a few others
			for u := 0; u < 1+r.Intn(3); u++ {
				fmt.Fprintf(&sb, "use(%s, n%d, v%d).\n", proc, r.Intn(cfg.NodesPerProc), v)
			}
		}
		// materialized complement of def
		for n := 0; n < cfg.NodesPerProc; n++ {
			for v := 0; v < cfg.Vars; v++ {
				if !defs[[2]int{n, v}] {
					fmt.Fprintf(&sb, "nodef(%s, n%d, v%d).\n", proc, n, v)
				}
			}
		}
	}
	return sb.String()
}

// QueryProc returns the demand query for one procedure's uninitialized
// uses — the "demand" in demand analysis: only one procedure of many is
// of interest.
func QueryProc(p int) string { return fmt.Sprintf("uninit(p%d, N, V)", p) }

// Outcome is one evaluation's measurements.
type Outcome struct {
	Answers  int
	Duration time.Duration
	// Facts is the number of derived tuples (bottom-up) or tabled
	// answers (top-down) — the work measure.
	Facts int
}

// RunTabled answers the query goal-directedly on the tabled engine.
func RunTabled(src, query string) (*Outcome, error) {
	m := engine.New()
	if err := m.Consult(src); err != nil {
		return nil, err
	}
	t0 := time.Now()
	sols, err := m.Query(query)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Answers:  len(sols),
		Duration: time.Since(t0),
		Facts:    m.Stats().Answers,
	}, nil
}

// RunBottomUpFull computes the entire model semi-naively, then filters
// the query answers (evaluation without goal direction — "Coral without
// magic").
func RunBottomUpFull(src, query string) (*Outcome, error) {
	s := bottomup.New()
	if err := s.Consult(src); err != nil {
		return nil, err
	}
	goal, _, err := prolog.ParseTerm(query)
	if err != nil {
		return nil, err
	}
	edb := s.Stats().Facts
	t0 := time.Now()
	if _, err := s.SemiNaive(); err != nil {
		return nil, err
	}
	ind, _ := term.Indicator(goal)
	answers := 0
	var tr term.Trail
	for _, f := range s.Facts(ind) {
		mark := tr.Mark()
		if fresh, _ := term.Detach(f); term.Unify(goal, fresh, &tr) {
			answers++
		}
		tr.Undo(mark)
	}
	return &Outcome{Answers: answers, Duration: time.Since(t0),
		Facts: s.Stats().Facts - edb}, nil
}

// RunBottomUpMagic applies the Magic-sets transformation for the query,
// then evaluates semi-naively ("Coral with magic").
func RunBottomUpMagic(src, query string) (*Outcome, error) {
	s := bottomup.New()
	if err := s.Consult(src); err != nil {
		return nil, err
	}
	goal, _, err := prolog.ParseTerm(query)
	if err != nil {
		return nil, err
	}
	// Collect EDB facts and rules from the parsed program.
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	var rules []*bottomup.Rule
	var facts []term.Term
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue
		}
		goals := prolog.Conjuncts(body)
		if len(goals) == 1 && term.Equal(goals[0], term.Atom("true")) {
			facts = append(facts, head)
			continue
		}
		rules = append(rules, &bottomup.Rule{Head: head, Body: goals})
	}
	_ = s
	t0 := time.Now()
	answers, sys, err := bottomup.AnswerQuery(rules, facts, nil, goal)
	if err != nil {
		return nil, err
	}
	return &Outcome{Answers: len(answers), Duration: time.Since(t0),
		Facts: sys.Stats().Facts - len(facts)}, nil
}
