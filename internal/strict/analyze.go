package strict

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"xlp/internal/engine"
	"xlp/internal/fl"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/supptab"
	"xlp/internal/term"
)

func parseAll(src string) ([]term.Term, error) {
	return prolog.ParseProgram(src)
}

// demandVal reads a demand argument, treating an unbound variable as n
// (no demand). This is the key to keeping the derived program's joins
// small: unevaluated occurrences never force enumeration.
func demandVal(t term.Term) Demand {
	if d, ok := DemandOf(t); ok {
		return d
	}
	return N
}

// RegisterDemandOps installs the native demand-lattice operations:
//
//	lub(D1, D2, L)     — L is the least upper bound of D1 and D2
//	cond_demand(D, Dc) — the demand a conditional places on its
//	                     condition: n stays n, anything else becomes d
//
// Both are deterministic and read unbound inputs as n.
func RegisterDemandOps(m *engine.Machine) {
	m.Register("lub/3", func(m *engine.Machine, args []term.Term, k func() bool) bool {
		v := Lub(demandVal(args[0]), demandVal(args[1]))
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if term.Unify(args[2], v.Atom(), tr) {
			if k() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
	m.Register("cond_demand/2", func(m *engine.Machine, args []term.Term, k func() bool) bool {
		dc := demandVal(args[0])
		if dc > D {
			dc = D
		}
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if term.Unify(args[1], dc.Atom(), tr) {
			if k() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
}

// Options configure a strictness-analysis run.
type Options struct {
	// Engine configures the engine: clause backend, table representation
	// and resource limits. Engine.Limits.MaxParallel > 1 evaluates
	// independent sp goals on concurrent machine shards; results and
	// engine stats are identical either way.
	Engine engine.Config
	// Entry restricts the analysis to the given functions ("f/n", or
	// bare "f" matching every arity): only their sp predicates are
	// demanded, so evaluation explores exactly their call-graph cone.
	// When empty, every function is analyzed.
	Entry []string
	// Slice, with Entry set, prunes the program to the entries' cone
	// before transformation (lint.SliceFL). Evaluation never leaves the
	// cone, so results are identical to an Entry-restricted run over the
	// full program; only preprocessing cost changes. Ignored without
	// Entry.
	Slice bool
	// NoSupplementary disables the supplementary-tabling optimization
	// (§4.2): long equation bodies are then evaluated as single joins,
	// re-enumerating cross products on backtracking. Used for the
	// ablation benchmark; leave false for production runs.
	NoSupplementary bool
	// Ctx, when non-nil, cancels the analysis: the engine polls it
	// during evaluation and the run fails with engine.ErrCanceled or
	// engine.ErrDeadline once it is done.
	Ctx context.Context
	// Timeline, when non-nil, records the run's phases
	// (parse/transform/load/solve/collect) as contiguous spans.
	Timeline *obs.Timeline
	// Tracer, when non-nil, is installed on the engine for the solve
	// phase.
	Tracer obs.EngineTracer
	// Provenance enables the engine's justification recorder and
	// retains the machine on the returned Analysis (Analysis.Machine),
	// so recorded answers can be explained after the run
	// (Analysis.Explain, `xlp why`). The strictness transform generates
	// its abstract clauses, so derivations cite clause indexes without
	// source positions.
	Provenance bool
}

// FuncResult is the strictness result for one function.
type FuncResult struct {
	Indicator string
	Arity     int
	// UnderE[i] is the demand guaranteed on argument i when the result
	// is demanded in full (e-demand on the output).
	UnderE []Demand
	// UnderD[i] is the demand guaranteed on argument i when the result
	// is demanded to head-normal form.
	UnderD []Demand
	// AnswersE / AnswersD count the combined abstract answers.
	AnswersE, AnswersD int
}

// Strict reports whether the function is strict in argument i in
// Mycroft's sense: evaluating the application (to HNF) always requires
// evaluating argument i.
func (r *FuncResult) Strict(i int) bool { return r.UnderD[i] >= D }

// String renders the result like "ap: e-demand -> (e,e); d-demand -> (d,n)".
func (r *FuncResult) String() string {
	fmtDs := func(ds []Demand) string {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = d.String()
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	return fmt.Sprintf("%s: e->%s d->%s", r.Indicator, fmtDs(r.UnderE), fmtDs(r.UnderD))
}

// Analysis is a full strictness run with the paper's phase breakdown
// (Table 3's columns).
type Analysis struct {
	Results map[string]*FuncResult

	PreprocTime    time.Duration
	AnalysisTime   time.Duration
	CollectionTime time.Duration
	TableBytes     int
	TableNodes     int // trie nodes backing the tables (0 under string maps)
	EngineStats    engine.Stats
	Timeline       *obs.Timeline // phase spans, when requested via Options
	SourceLines    int

	// Machine is the engine that ran the analysis, retained — with its
	// full tables alive — only when Options.Provenance was set; nil
	// otherwise. SpPreds maps source indicators (f/n) to the abstract
	// sp predicates (sp_f/n+1) backing them.
	Machine *engine.Machine
	SpPreds map[string]string
}

// Explain builds the justification DAG for the recorded answers of a
// function's abstract sp predicate (both demands). pred is an
// indicator ("ap/2") or a bare name (matching the smallest arity). The
// analysis must have run with Options.Provenance.
func (a *Analysis) Explain(pred string, maxNodes int) (*obs.Derivation, error) {
	if a.Machine == nil {
		return nil, fmt.Errorf("strict: analysis ran without Options.Provenance")
	}
	sp, ok := a.SpPreds[pred]
	if !ok {
		inds := make([]string, 0, len(a.SpPreds))
		for ind := range a.SpPreds {
			if name, _ := splitInd(ind); name == pred {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 {
			return nil, fmt.Errorf("strict: no function %s in the analyzed program", pred)
		}
		sort.Slice(inds, func(i, j int) bool {
			_, ni := splitInd(inds[i])
			_, nj := splitInd(inds[j])
			return ni < nj
		})
		sp = a.SpPreds[inds[0]]
	}
	name, arity := splitInd(sp)
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = term.NewVar("V")
	}
	return a.Machine.Explain(term.NewCompound(name, args...), maxNodes)
}

// Total returns the overall time.
func (a *Analysis) Total() time.Duration {
	return a.PreprocTime + a.AnalysisTime + a.CollectionTime
}

// LinesPerSecond returns source-lines-per-second throughput (the paper
// reports "about 200 to 350 source lines per second").
func (a *Analysis) LinesPerSecond() float64 {
	secs := a.Total().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(a.SourceLines) / secs
}

// Sorted returns results in indicator order.
func (a *Analysis) Sorted() []*FuncResult {
	inds := make([]string, 0, len(a.Results))
	for ind := range a.Results {
		inds = append(inds, ind)
	}
	sort.Strings(inds)
	out := make([]*FuncResult, len(inds))
	for i, ind := range inds {
		out[i] = a.Results[ind]
	}
	return out
}

// Analyze runs strictness analysis on a functional source program.
func Analyze(src string, opts Options) (*Analysis, error) {
	a := &Analysis{Results: map[string]*FuncResult{}}

	// ---- Phase 1: preprocessing (parse + transform + load). ----
	tl := opts.Timeline
	a.Timeline = tl
	defer tl.End()
	t0 := time.Now()
	tl.Start("parse")
	prog, err := fl.Parse(src)
	if err != nil {
		return nil, err
	}
	tl.Start("transform")
	full := prog
	if opts.Slice && len(opts.Entry) > 0 {
		prog = lint.SliceFL(prog, opts.Entry)
	}
	tf, err := Transform(prog)
	if err != nil {
		return nil, err
	}
	tl.Start("load")
	m := engine.New()
	m.Config = opts.Engine
	m.Provenance = opts.Provenance
	m.SetContext(opts.Ctx)
	m.SetTracer(opts.Tracer)
	RegisterDemandOps(m)
	clauses := tf.Clauses
	var extraTabled []string
	if !opts.NoSupplementary {
		st := supptab.Transform(clauses, 3)
		clauses = st.Clauses
		extraTabled = st.Tabled
	}
	if err := m.ConsultTerms(clauses); err != nil {
		return nil, err
	}
	for _, sp := range tf.SpPreds {
		m.Table(sp)
	}
	m.Table(extraTabled...)
	a.SourceLines = prog.Lines
	if opts.Provenance {
		a.Machine = m
		a.SpPreds = tf.SpPreds
	}
	a.PreprocTime = time.Since(t0)

	// ---- Phase 2: analysis (evaluate sp_f under e- and d-demands). ----
	// Solve in sorted indicator order: the demand ops read unbound
	// demand variables as n, so the derived program is not monotone and
	// recorded answer sets can depend on evaluation order — a map-order
	// walk here made results differ from run to run on the same input.
	tl.Start("solve")
	t1 := time.Now()
	inds := make([]string, 0, len(tf.SpPreds))
	for ind := range tf.SpPreds {
		inds = append(inds, ind)
	}
	sort.Strings(inds)
	var goals []term.Term
	var goalInds []string
	for _, ind := range inds {
		sp := tf.SpPreds[ind]
		if !entryMatch(opts.Entry, ind) {
			continue
		}
		for _, d := range []term.Term{DemandE, DemandD} {
			goals = append(goals, spCall(sp, d))
			goalInds = append(goalInds, ind)
		}
	}
	if err := m.SolveAll(goals); err != nil {
		ind := "?"
		var ge *engine.GoalError
		if errors.As(err, &ge) {
			ind = goalInds[ge.Index]
		}
		return nil, fmt.Errorf("strict: analyzing %s: %w", ind, err)
	}
	a.AnalysisTime = time.Since(t1)

	// ---- Phase 3: collection (per-argument glb over answers). ----
	tl.Start("collect")
	t2 := time.Now()
	for ind, sp := range tf.SpPreds {
		a.Results[ind] = collect(m, ind, sp)
	}
	// Functions sliced away have no tables; collect them through the
	// same path so their (empty) results match an unsliced run's.
	for _, ind := range full.Order {
		if _, analyzed := a.Results[ind]; analyzed {
			continue
		}
		name, arity := splitInd(ind)
		a.Results[ind] = collect(m, ind, fmt.Sprintf("%s/%d", spName(name, arity), arity+1))
	}
	a.TableBytes = m.TableSpace()
	a.TableNodes = m.TableNodes()
	a.EngineStats = m.Stats()
	a.CollectionTime = time.Since(t2)
	return a, nil
}

// entryMatch reports whether ind is selected by the entry list: empty
// list selects everything; entries are "f/n" indicators or bare names.
func entryMatch(entries []string, ind string) bool {
	if len(entries) == 0 {
		return true
	}
	name, _ := splitInd(ind)
	for _, e := range entries {
		if e == ind || e == name {
			return true
		}
	}
	return false
}

func spCall(spInd string, demand term.Term) term.Term {
	name, arity := splitInd(spInd)
	args := make([]term.Term, arity)
	args[0] = demand
	for i := 1; i < arity; i++ {
		args[i] = term.NewVar("V")
	}
	return term.NewCompound(name, args...)
}

// collect combines the answers of sp_f(e, ...) and sp_f(d, ...) by
// per-argument glb: an argument's guaranteed demand is the weakest
// demand over all ways the function can propagate demand (unbound
// answer variables mean no demand, i.e. n).
func collect(m *engine.Machine, ind, spInd string) *FuncResult {
	_, spArity := splitInd(spInd)
	arity := spArity - 1
	res := &FuncResult{
		Indicator: ind,
		Arity:     arity,
		UnderE:    make([]Demand, arity),
		UnderD:    make([]Demand, arity),
	}
	for i := range res.UnderE {
		res.UnderE[i] = E
		res.UnderD[i] = E
	}
	sawE, sawD := false, false
	for _, dump := range m.DumpTables(spInd) {
		_, callArgs, _ := term.FunctorArity(dump.Call)
		if len(callArgs) == 0 {
			continue
		}
		callDemand, ok := DemandOf(callArgs[0])
		if !ok {
			continue // recorded call with unbound demand (inner call)
		}
		for _, ans := range dump.Answers {
			_, ansArgs, _ := term.FunctorArity(ans)
			switch callDemand {
			case E:
				sawE = true
				foldGlb(res.UnderE, ansArgs[1:])
				res.AnswersE++
			case D:
				sawD = true
				foldGlb(res.UnderD, ansArgs[1:])
				res.AnswersD++
			}
		}
	}
	// No successes under a demand: the function diverges under it; the
	// vacuous glb (E everywhere) is technically sound but we report it
	// as-is, matching the relational semantics.
	_ = sawE
	_ = sawD
	return res
}

func foldGlb(acc []Demand, args []term.Term) {
	for i, a := range args {
		d, ok := DemandOf(a)
		if !ok {
			d = N // unbound: no demand propagated
		}
		acc[i] = Glb(acc[i], d)
	}
}
