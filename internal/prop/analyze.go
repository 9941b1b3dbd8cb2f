package prop

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"xlp/internal/boolfn"
	"xlp/internal/engine"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Options configure an analysis run.
type Options struct {
	// Engine configures the engine: the clause backend (dynamic loading,
	// the paper's recommended assert-based path, or closure compilation,
	// §4's comparison point), the table representation and the resource
	// limits. Engine.Limits.MaxParallel > 1 evaluates independent
	// analysis goals on concurrent machine shards; results and engine
	// stats are identical either way.
	Engine engine.Config
	// Entry lists source-level entry goals, e.g. "main(X)". When given,
	// the analysis is goal-directed: only calls reachable from the
	// entries are analyzed and the recorded calls yield input groundness.
	// When empty, every defined predicate is analyzed with an open call
	// (output groundness only, all-free call pattern).
	Entry []string
	// Slice, with Entry set, restricts transformation and loading to the
	// call-graph cone of the entry predicates (lint.Slice). Predicates
	// outside the cone still appear in Results as unreachable — exactly
	// as a goal-directed run over the full program reports them — so
	// slicing changes cost, never answers. Ignored without Entry.
	Slice bool
	// PureIff evaluates iff/N through generated Prolog clauses instead
	// of the native builtin (slower; used for validation).
	PureIff bool
	// Ctx, when non-nil, cancels the analysis: the engine polls it
	// during evaluation and the run fails with engine.ErrCanceled or
	// engine.ErrDeadline once it is done.
	Ctx context.Context
	// Timeline, when non-nil, records the run's phases
	// (parse/transform/load/solve/collect) as contiguous spans. The
	// caller owns the timeline; the analysis closes its last phase.
	Timeline *obs.Timeline
	// Tracer, when non-nil, is installed on the engine for the solve
	// phase (event ring + per-predicate counters).
	Tracer obs.EngineTracer
	// Provenance enables the engine's justification recorder and
	// retains the machine (with its live tables) on the returned
	// Analysis, so recorded answers can be explained after the run
	// (Analysis.Explain, `xlp why`). Source clause positions are
	// stamped onto the generated abstract clauses, so derivations
	// point back into the source program.
	Provenance bool
}

// GroundState describes one argument position of a recorded call.
type GroundState int

const (
	Unknown   GroundState = iota // free at call time
	Ground                       // known ground at call time
	NonGround                    // known non-ground at call time
)

func (g GroundState) String() string {
	switch g {
	case Ground:
		return "g"
	case NonGround:
		return "ng"
	}
	return "?"
}

// CallPattern is the input groundness of one recorded call.
type CallPattern struct {
	Args []GroundState
}

func (cp CallPattern) String() string {
	parts := make([]string, len(cp.Args))
	for i, a := range cp.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// PredResult is the analysis result for one source predicate.
type PredResult struct {
	Indicator string // source indicator p/n
	Arity     int
	Success   *boolfn.Fun // output groundness formula over argument positions
	// GroundArgs[i] reports that argument i is ground in every success.
	GroundArgs []bool
	// Calls are the distinct recorded input patterns (goal-directed runs).
	Calls []CallPattern
	// AnswerCount is the number of distinct abstract answers combined.
	AnswerCount int
	// Reachable is false when no call to the predicate was recorded
	// (goal-directed analysis of dead code).
	Reachable bool
}

// FormatSuccess renders the success formula with A1..An argument names.
func (r *PredResult) FormatSuccess() string {
	names := make([]string, r.Arity)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i+1)
	}
	return r.Success.Format(names)
}

// Analysis is a full groundness-analysis run with the paper's cost
// breakdown (Table 1's columns).
type Analysis struct {
	Results map[string]*PredResult

	PreprocTime    time.Duration // transform + load ("Preproc." column)
	AnalysisTime   time.Duration // tabled evaluation ("Analysis")
	CollectionTime time.Duration // result extraction ("Collection")
	TableBytes     int           // "Table space (bytes)"
	TableNodes     int           // trie nodes backing the tables (0 under string maps)
	EngineStats    engine.Stats
	Timeline       *obs.Timeline // phase spans, when requested via Options
	AbstractSize   int           // number of abstract clauses
	// SlicedOut lists predicates removed by Options.Slice before the
	// transform (reported in Results as unreachable), in definition order.
	SlicedOut []string

	// Machine is the engine that ran the analysis, retained — with its
	// full tables alive — only when Options.Provenance was set; nil
	// otherwise.
	Machine *engine.Machine
	// AbsPreds maps source indicators (p/n) to abstract ones (gp_p/n);
	// retained with Machine so explanation surfaces can find the
	// abstract subgoal behind a source predicate.
	AbsPreds map[string]string
}

// Explain builds the justification DAG for the recorded answers of a
// source predicate's abstract subgoal. pred is an indicator ("app/3")
// or a bare name (matching the smallest arity defined). The analysis
// must have run with Options.Provenance.
func (a *Analysis) Explain(pred string, maxNodes int) (*obs.Derivation, error) {
	if a.Machine == nil {
		return nil, fmt.Errorf("prop: analysis ran without Options.Provenance")
	}
	absInd, ok := a.AbsPreds[pred]
	if !ok {
		// Bare name: take the smallest matching arity for determinism.
		inds := make([]string, 0, len(a.AbsPreds))
		for ind := range a.AbsPreds {
			if name, _ := splitInd(ind); name == pred {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 {
			return nil, fmt.Errorf("prop: no predicate %s in the analyzed program", pred)
		}
		sort.Slice(inds, func(i, j int) bool {
			_, ni := splitInd(inds[i])
			_, nj := splitInd(inds[j])
			return ni < nj
		})
		absInd = a.AbsPreds[inds[0]]
	}
	return a.Machine.Explain(openCall(absInd), maxNodes)
}

// Total returns the overall analysis time.
func (a *Analysis) Total() time.Duration {
	return a.PreprocTime + a.AnalysisTime + a.CollectionTime
}

// Sorted returns results in indicator order.
func (a *Analysis) Sorted() []*PredResult {
	inds := make([]string, 0, len(a.Results))
	for ind := range a.Results {
		inds = append(inds, ind)
	}
	sort.Strings(inds)
	out := make([]*PredResult, len(inds))
	for i, ind := range inds {
		out[i] = a.Results[ind]
	}
	return out
}

// Analyze runs Prop-domain groundness analysis on a Prolog source
// program.
func Analyze(src string, opts Options) (*Analysis, error) {
	opts.Timeline.Start("parse")
	if opts.Provenance {
		// Track positions so justifications can cite source clauses.
		infos, err := prolog.ParseProgramInfo(src)
		if err != nil {
			opts.Timeline.End()
			return nil, err
		}
		clauses := make([]term.Term, len(infos))
		pos := make(map[term.Term]prolog.Pos, len(infos))
		for i, ci := range infos {
			clauses[i] = ci.Term
			pos[ci.Term] = ci.Pos
		}
		return analyzeClauses(clauses, pos, opts)
	}
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		opts.Timeline.End()
		return nil, err
	}
	return AnalyzeClauses(clauses, opts)
}

// AnalyzeClauses analyzes pre-parsed source clauses (no source
// positions: provenance records, if enabled, cite clause indexes only).
func AnalyzeClauses(clauses []term.Term, opts Options) (*Analysis, error) {
	return analyzeClauses(clauses, nil, opts)
}

// analyzeClauses is the shared implementation; clausePos, when non-nil,
// maps source clause terms to their positions for provenance stamping.
func analyzeClauses(clauses []term.Term, clausePos map[term.Term]prolog.Pos, opts Options) (*Analysis, error) {
	a := &Analysis{Results: map[string]*PredResult{}}

	// ---- Phase 1: preprocessing (slice + transform + load). ----
	tl := opts.Timeline
	a.Timeline = tl
	defer tl.End()
	t0 := time.Now()
	tl.Start("transform")
	full := clauses
	if opts.Slice && len(opts.Entry) > 0 {
		entries, err := entryIndicators(opts.Entry)
		if err != nil {
			return nil, err
		}
		clauses = lint.Slice(clauses, entries)
	}
	tf, err := Transform(clauses)
	if err != nil {
		return nil, err
	}
	tl.Start("load")
	m := engine.New()
	m.Config = opts.Engine
	m.Provenance = opts.Provenance
	m.SetContext(opts.Ctx)
	m.SetTracer(opts.Tracer)
	maxIff := tf.MaxIffArity
	if maxIff < 2 {
		maxIff = 2
	}
	if opts.PureIff {
		if err := m.Consult(PureIffClauses(maxIff)); err != nil {
			return nil, err
		}
	} else {
		RegisterIff(m, maxIff)
	}
	if err := m.ConsultTerms(tf.Clauses); err != nil {
		return nil, err
	}
	// Table every abstract predicate; declare called-but-undefined ones
	// so they fail finitely.
	for _, abs := range tf.Preds {
		m.Table(abs)
	}
	for _, abs := range tf.Called {
		m.Table(abs)
	}
	a.AbstractSize = len(tf.Clauses)
	if opts.Provenance {
		a.Machine = m
		a.AbsPreds = tf.Preds
		stampPositions(m, clauses, tf.Preds, clausePos)
	}
	a.PreprocTime = time.Since(t0)

	// ---- Phase 2: analysis (tabled evaluation). ----
	tl.Start("solve")
	t1 := time.Now()
	if len(opts.Entry) > 0 {
		goals := make([]term.Term, 0, len(opts.Entry))
		for _, e := range opts.Entry {
			goal, _, err := prolog.ParseTerm(e)
			if err != nil {
				return nil, fmt.Errorf("prop: bad entry goal %q: %v", e, err)
			}
			absGoal, err := abstractEntry(goal)
			if err != nil {
				return nil, err
			}
			goals = append(goals, absGoal)
		}
		if err := m.SolveAll(goals); err != nil {
			return nil, err
		}
	} else {
		// Solve in sorted indicator order. Results are a fixpoint and do
		// not depend on it, but the evaluation trajectory (resolution and
		// producer-pass counts) does; a map-order walk here made those
		// counters differ from run to run on the same input, which the
		// tables_trie_vs_stringmap oracle compares exactly. SolveAll
		// preserves this order (and its stats) even when
		// Engine.Limits.MaxParallel splits the goals across machine
		// shards.
		inds := make([]string, 0, len(tf.Preds))
		for ind := range tf.Preds {
			inds = append(inds, ind)
		}
		sort.Strings(inds)
		goals := make([]term.Term, len(inds))
		for i, ind := range inds {
			goals[i] = openCall(tf.Preds[ind])
		}
		if err := m.SolveAll(goals); err != nil {
			ind := "?"
			var ge *engine.GoalError
			if errors.As(err, &ge) {
				ind = inds[ge.Index]
			}
			return nil, fmt.Errorf("prop: analyzing %s: %w", ind, err)
		}
	}
	a.AnalysisTime = time.Since(t1)

	// ---- Phase 3: collection. ----
	tl.Start("collect")
	t2 := time.Now()
	for ind, abs := range tf.Preds {
		a.Results[ind] = collect(m, ind, abs)
	}
	// Predicates sliced away never reached the engine; report them the
	// way a goal-directed run over the full program would — unreachable,
	// with the empty success function.
	for _, ind := range lint.Predicates(full) {
		if _, analyzed := a.Results[ind]; analyzed {
			continue
		}
		a.SlicedOut = append(a.SlicedOut, ind)
		_, arity := splitInd(ind)
		res := &PredResult{Indicator: ind, Arity: arity, Success: boolfn.False(arity)}
		res.GroundArgs = make([]bool, arity)
		for i := 0; i < arity; i++ {
			res.GroundArgs[i] = res.Success.CertainlyGround(i)
		}
		a.Results[ind] = res
	}
	a.TableBytes = m.TableSpace()
	a.TableNodes = m.TableNodes()
	a.EngineStats = m.Stats()
	a.CollectionTime = time.Since(t2)
	return a, nil
}

// stampPositions copies source clause positions onto the generated
// abstract clauses. The transform emits exactly one abstract clause per
// source clause, in order, so the i-th clause of gp_p/n came from the
// i-th clause of p/n.
func stampPositions(m *engine.Machine, clauses []term.Term, preds map[string]string, pos map[term.Term]prolog.Pos) {
	if pos == nil {
		return
	}
	nth := map[string]int{}
	for _, c := range clauses {
		head, _ := prolog.SplitClause(c)
		if head == nil {
			continue // directives emit no abstract clause
		}
		ind, ok := term.Indicator(head)
		if !ok {
			continue
		}
		i := nth[ind]
		nth[ind]++
		absInd, ok := preds[ind]
		if !ok {
			continue
		}
		if cls := m.Pred(absInd).Clauses; i < len(cls) {
			if p, ok := pos[c]; ok {
				cls[i].Pos = p
			}
		}
	}
}

// openCall builds gp_p(V1..Vn) for an abstract indicator.
func openCall(absInd string) term.Term {
	name, arity := splitInd(absInd)
	args := make([]term.Term, arity)
	for i := range args {
		args[i] = term.NewVar("V")
	}
	return term.NewCompound(name, args...)
}

// entryIndicators maps source entry goals ("main(X)") to predicate
// indicators ("main/1") for the slicer.
func entryIndicators(entries []string) ([]string, error) {
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		goal, _, err := prolog.ParseTerm(e)
		if err != nil {
			return nil, fmt.Errorf("prop: bad entry goal %q: %v", e, err)
		}
		ind, ok := term.Indicator(goal)
		if !ok {
			return nil, fmt.Errorf("prop: non-callable entry goal %v", goal)
		}
		out = append(out, ind)
	}
	return out, nil
}

func splitInd(ind string) (string, int) {
	i := strings.LastIndexByte(ind, '/')
	var n int
	fmt.Sscanf(ind[i+1:], "%d", &n)
	return ind[:i], n
}

// abstractEntry maps a source entry goal to the abstract call: ground
// arguments become true, variables stay free.
func abstractEntry(goal term.Term) (term.Term, error) {
	name, args, ok := term.FunctorArity(goal)
	if !ok {
		return nil, fmt.Errorf("prop: non-callable entry goal %v", goal)
	}
	absArgs := make([]term.Term, len(args))
	for i, arg := range args {
		switch {
		case term.IsGround(arg):
			absArgs[i] = atomTrue
		default:
			absArgs[i] = term.NewVar("E")
		}
	}
	return term.NewCompound(absName(name), absArgs...), nil
}

// collect folds a predicate's call tables into a PredResult: each answer
// tuple is one row of the truth table (free variables expand to both
// values); the disjunction of rows is the success formula. The calls
// recorded in the table give the input patterns.
func collect(m *engine.Machine, srcInd, absInd string) *PredResult {
	_, arity := splitInd(absInd)
	res := &PredResult{
		Indicator: srcInd,
		Arity:     arity,
		Success:   boolfn.False(arity),
	}
	seenCalls := map[string]bool{}
	seenAnswers := map[string]bool{}
	for _, dump := range m.DumpTables(absInd) {
		res.Reachable = true
		if cp, ok := callPattern(dump.Call); ok && !seenCalls[cp.String()] {
			seenCalls[cp.String()] = true
			res.Calls = append(res.Calls, cp)
		}
		for _, ans := range dump.Answers {
			key := term.Canonical(ans)
			if seenAnswers[key] {
				continue
			}
			seenAnswers[key] = true
			res.AnswerCount++
			addAnswerRows(res.Success, ans)
		}
	}
	res.GroundArgs = make([]bool, arity)
	for i := 0; i < arity; i++ {
		res.GroundArgs[i] = res.Success.CertainlyGround(i)
	}
	return res
}

func callPattern(call term.Term) (CallPattern, bool) {
	_, args, ok := term.FunctorArity(call)
	if !ok {
		return CallPattern{}, false
	}
	cp := CallPattern{Args: make([]GroundState, len(args))}
	for i, a := range args {
		switch t := term.Deref(a).(type) {
		case term.Atom:
			switch t {
			case atomTrue:
				cp.Args[i] = Ground
			case atomFalse:
				cp.Args[i] = NonGround
			}
		default:
			cp.Args[i] = Unknown
		}
	}
	return cp, true
}

// addAnswerRows adds the truth-table rows denoted by one abstract answer
// tuple: bound true/false args fix bits, unbound args range over both
// values — consistently for repeated occurrences of the same variable
// (e.g. the base-case answer gp_ap(true, V, V) denotes exactly the rows
// where args 2 and 3 agree).
func addAnswerRows(f *boolfn.Fun, ans term.Term) {
	_, args, ok := term.FunctorArity(ans)
	if !ok {
		return
	}
	n := len(args)
	assign := map[*term.Var]bool{}
	var rec func(i int, row uint)
	rec = func(i int, row uint) {
		if i == n {
			f.SetRow(row)
			return
		}
		switch t := term.Deref(args[i]).(type) {
		case term.Atom:
			switch t {
			case atomTrue:
				rec(i+1, row|1<<uint(i))
				return
			case atomFalse:
				rec(i+1, row)
				return
			}
		case *term.Var:
			if val, seen := assign[t]; seen {
				if val {
					rec(i+1, row|1<<uint(i))
				} else {
					rec(i+1, row)
				}
				return
			}
			assign[t] = false
			rec(i+1, row)
			assign[t] = true
			rec(i+1, row|1<<uint(i))
			delete(assign, t)
			return
		}
		// Unexpected non-boolean constant: both values (conservative).
		rec(i+1, row)
		rec(i+1, row|1<<uint(i))
	}
	rec(0, 0)
}
