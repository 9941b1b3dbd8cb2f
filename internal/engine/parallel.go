package engine

// Parallel group-level tabled evaluation (ROADMAP item 2). SolveAll is
// the solve phase of the analyses: a list of goals, each enumerated to
// exhaustion. With Limits.MaxParallel > 1 the machine partitions the
// goals into independent groups — connected components of the "reaches
// the same tabled predicate" relation over the static call graph — and
// evaluates each group on a forked machine shard, one goroutine per
// group on a bounded worker pool.
//
// Why groups, not individual subgoal SCCs. The engine's completion
// discipline (table.go) already identifies SCCs of the dynamic subgoal
// dependency graph, but producer-pass and resolution counts inside one
// weakly-connected region depend on the order answers arrive, so
// scheduling its SCCs concurrently cannot reproduce the sequential
// Stats. Disconnected regions are different: a goal group that shares
// no tabled predicate with another can never read the other's tables,
// so its subgoals, answers, pass counts, table bytes, and provenance
// records are exactly those of a sequential run. Group-level
// parallelism is therefore the largest unit that keeps the parallel
// run byte-identical to the sequential one — the property the
// parallel_vs_sequential difftest oracle checks — and the static
// predicate-level cone is a sound over-approximation of the dynamic
// subgoal dependency graph's weak connectivity.
//
// Sharding model. Shards share only immutable program state: the
// predicate map (clauses, indexes, and closure code are frozen before
// forking), the builtin table, and the process-global symbol intern
// table (lock-free reads, copy-on-write publication — see
// term.Intern). Everything mutable — trail, call/answer tries, symbol
// memo, producer stacks, stats, premise stack — is per-shard, so
// shards run without any synchronization on the evaluation hot path.
// After all groups finish, the shard tables are spliced into the
// parent machine in the sequential run's subgoal creation order and
// AnswerRef coordinates are rebased, so table dumps, Stats, and
// justifications are indistinguishable from a sequential run.
//
// Caveats (documented, asserted by the race/stress tests):
//   - Limits apply per shard, not globally: a parallel run can admit up
//     to len(groups) times MaxSubgoals/MaxAnswers before failing. The
//     error sentinels are unchanged.
//   - On error nothing is merged: the parent keeps its (empty) tables
//     and the earliest failing goal's error is returned, wrapped in a
//     GoalError carrying the goal index.
//   - The fallback to sequential evaluation (unsafe constructs,
//     a single group, pre-existing tables) is always semantics-neutral.

import (
	"sort"
	"sync"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// GoalError wraps an evaluation error with the index of the SolveAll
// goal whose evaluation produced it, so callers can attribute the
// failure (the analyzers name the predicate being analyzed). It is
// transparent to errors.Is/errors.As via Unwrap.
type GoalError struct {
	Index int // index into the SolveAll goal list
	Err   error
}

func (e *GoalError) Error() string { return e.Err.Error() }
func (e *GoalError) Unwrap() error { return e.Err }

// ParStats reports intra-query scheduling counters for SolveAll. They
// are deliberately kept out of Stats: Stats must stay byte-identical
// between parallel and sequential runs, while these describe the
// schedule itself.
type ParStats struct {
	Runs         int // SolveAll calls that evaluated groups concurrently
	Groups       int // independent goal groups scheduled across all runs
	ParGoals     int // goals evaluated on forked shards
	SeqFallbacks int // SolveAll calls that wanted parallelism but ran sequentially
	MaxWorkers   int // widest worker pool used by any run
}

// ParallelStats returns a copy of the scheduling counters. Like Stats
// they accumulate until ResetTables.
func (m *Machine) ParallelStats() ParStats { return m.parStats }

// SolveAll proves each goal in order, enumerating and discarding every
// solution — the analyses' solve phase. With Limits.MaxParallel > 1 it
// evaluates independent goal groups concurrently (see the package
// comment above); otherwise, or when the goals cannot be split safely,
// it is exactly the sequential loop over Solve. The first evaluation
// error is returned as a *GoalError; on a parallel run the error
// reported is the one from the earliest goal in list order, matching
// which goal a sequential run would have blamed.
func (m *Machine) SolveAll(goals []term.Term) error {
	par := m.Limits.MaxParallel
	if par > 1 && len(goals) > 1 && len(m.subgoals) == 0 {
		if groups, ok := m.planGroups(goals); ok && len(groups) > 1 {
			return m.solveAllParallel(goals, groups, par)
		}
		m.parStats.SeqFallbacks++
	}
	return m.solveAllSeq(goals)
}

func (m *Machine) solveAllSeq(goals []term.Term) error {
	for i, g := range goals {
		if err := m.Solve(g, func() bool { return false }); err != nil {
			return &GoalError{Index: i, Err: err}
		}
	}
	return nil
}

// planGroups partitions the goal indices into connected components of
// the tabled-cone intersection relation: goals whose static call cones
// share a tabled predicate land in one group (in ascending goal order,
// preserving the sequential evaluation order within the group). ok is
// false when any goal reaches a construct that defeats the static scan
// (unbound goals, assert/retract, I/O) or when two goals share an
// unbound variable — then the caller must evaluate sequentially.
func (m *Machine) planGroups(goals []term.Term) (groups [][]int, ok bool) {
	scan := newDepScan(m)
	group := make([]int, len(goals)) // goal -> representative goal index
	owner := map[pkey]int{}          // tabled pred -> representative
	seenVars := map[*term.Var]int{}
	for i, g := range goals {
		cone, safe := scan.goalCone(g)
		if !safe {
			return nil, false
		}
		// Goals sharing an unbound variable could observe each other's
		// bindings mid-run; the analyzers never do this, but SolveAll
		// must not assume its caller.
		for _, v := range freeVars(g) {
			if j, dup := seenVars[v]; dup && j != i {
				return nil, false
			}
			seenVars[v] = i
		}
		group[i] = i
		find := func(x int) int {
			for group[x] != x {
				group[x] = group[group[x]]
				x = group[x]
			}
			return x
		}
		for pk := range cone {
			if j, claimed := owner[pk]; claimed {
				ri, rj := find(i), find(j)
				if ri != rj {
					if rj < ri {
						ri, rj = rj, ri
					}
					group[rj] = ri // smaller goal index leads
				}
				owner[pk] = find(i)
			} else {
				owner[pk] = i
			}
		}
	}
	byRep := map[int][]int{}
	for i := range goals {
		r := i
		for group[r] != r {
			r = group[r]
		}
		byRep[r] = append(byRep[r], i)
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	groups = make([][]int, 0, len(reps))
	for _, r := range reps {
		groups = append(groups, byRep[r])
	}
	return groups, true
}

// shardRun is one group's evaluation on a forked machine.
type shardRun struct {
	mach    *Machine
	goals   []int // global goal indices, ascending
	segs    []int // len(mach.subgoals) after each goal: creation segments
	remap   []int // shard subgoal index -> parent subgoal index
	err     error
	errGoal int
}

// solveAllParallel evaluates the goal groups concurrently on at most
// par workers and splices the resulting tables back into m.
func (m *Machine) solveAllParallel(goals []term.Term, groups [][]int, par int) error {
	if m.Mode == ModeClosure {
		// Freeze the compile cache before forking: closurePred writes
		// Pred.closure lazily, which shards must never do concurrently.
		// finishLoad already compiled every consulted predicate; this
		// covers predicates declared after loading (tabled-undefined).
		m.compileAll()
	}
	// Likewise the semi-naive clause marks, which shards read.
	m.ensureMarks()
	var shardTracer obs.EngineTracer
	if m.tracer != nil {
		shardTracer = &lockedTracer{t: m.tracer}
	}
	if par > len(groups) {
		par = len(groups)
	}
	m.parStats.Runs++
	m.parStats.Groups += len(groups)
	if par > m.parStats.MaxWorkers {
		m.parStats.MaxWorkers = par
	}

	runs := make([]*shardRun, len(groups))
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for gi, grp := range groups {
		r := &shardRun{mach: m.fork(), goals: grp}
		r.mach.tracer = shardTracer
		runs[gi] = r
		m.parStats.ParGoals += len(grp)
		if shardTracer != nil {
			// Locked: shards of earlier groups are already emitting.
			shardTracer.Emit(obs.EvParallelGroup, "$solveall", len(grp))
		}
		wg.Add(1)
		go func(r *shardRun) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, gi := range r.goals {
				if r.err == nil {
					if err := r.mach.Solve(goals[gi], func() bool { return false }); err != nil {
						r.err, r.errGoal = err, gi
					}
				}
				r.segs = append(r.segs, len(r.mach.subgoals))
			}
		}(r)
	}
	wg.Wait()

	var firstErr *shardRun
	for _, r := range runs {
		if r.err != nil && (firstErr == nil || r.errGoal < firstErr.errGoal) {
			firstErr = r
		}
	}
	if firstErr != nil {
		// Merge nothing: the parent keeps its pre-run (empty) tables, so
		// a failed parallel run leaves the machine reusable exactly like
		// a failed Solve does.
		return &GoalError{Index: firstErr.errGoal, Err: firstErr.err}
	}
	m.mergeShards(goals, runs)
	return nil
}

// fork returns a machine shard for one goal group: shared immutable
// program (predicates, builtins, abstraction hooks), fresh evaluation
// state. The shard observes the parent's context for cancellation.
func (m *Machine) fork() *Machine {
	return &Machine{
		Config:            m.Config,
		Provenance:        m.Provenance,
		Out:               m.Out,
		AnswerAbstraction: m.AnswerAbstraction,
		CallAbstraction:   m.CallAbstraction,
		AbstractUnify:     m.AbstractUnify,
		preds:             m.preds,
		builtins:          m.builtins,
		ctx:               m.ctx,
		progGen:           m.progGen,
		snFresh:           m.snFresh,
	}
}

// mergeShards splices the shard tables into the parent in the
// sequential run's subgoal creation order: segments of subgoals are
// interleaved by the goal that created them, indices and provenance
// refs are rebased, and stats are summed. The parent re-registers each
// subgoal in its own call-table index without re-charging table space
// (the shard already charged it, exactly as a sequential run would
// have).
func (m *Machine) mergeShards(goals []term.Term, runs []*shardRun) {
	type segment struct {
		r        *shardRun
		from, to int
	}
	segs := make([]segment, len(goals))
	for _, r := range runs {
		r.remap = make([]int, len(r.mach.subgoals))
		prev := 0
		for k, gi := range r.goals {
			segs[gi] = segment{r: r, from: prev, to: r.segs[k]}
			prev = r.segs[k]
		}
	}
	next := len(m.subgoals)
	for _, s := range segs {
		for i := s.from; i < s.to; i++ {
			s.r.remap[i] = next
			next++
		}
	}
	for _, s := range segs {
		for i := s.from; i < s.to; i++ {
			sg := s.r.mach.subgoals[i]
			sg.idx = s.r.remap[i]
			if m.Provenance {
				for _, j := range sg.justs {
					if j == nil {
						continue
					}
					for pi := range j.Premises {
						j.Premises[pi].Subgoal = s.r.remap[j.Premises[pi].Subgoal]
					}
				}
			}
			sg.watchers = nil // completed tables never wake consumers again
			m.adoptSubgoal(sg)
		}
	}
	for _, r := range runs {
		addStats(&m.stats, r.mach.stats)
		m.nextDfn += r.mach.nextDfn
		m.provNodes += r.mach.provNodes
	}
}

// adoptSubgoal registers an already-evaluated subgoal in the machine's
// call-table index. No table space is charged and no tracer events are
// emitted: the producing shard accounted for both.
func (m *Machine) adoptSubgoal(sg *subgoal) {
	if m.useTrie() {
		if m.callTrie == nil {
			m.callTrie = term.NewTrie()
			m.callTrie.UseSymCache(m.syms())
		}
		leaf, _ := m.callTrie.Insert(sg.goal)
		leaf.SetValue(sg)
	} else {
		if m.tables == nil {
			m.tables = map[string]*subgoal{}
		}
		m.tables[m.callKey(sg)] = sg
	}
	m.subgoals = append(m.subgoals, sg)
}

func addStats(dst *Stats, s Stats) {
	dst.Resolutions += s.Resolutions
	dst.BuiltinCalls += s.BuiltinCalls
	dst.Subgoals += s.Subgoals
	dst.Answers += s.Answers
	dst.ProducerRuns += s.ProducerRuns
	dst.ProducerPasses += s.ProducerPasses
	dst.TableBytes += s.TableBytes
	dst.CallBytes += s.CallBytes
	dst.AnswerBytes += s.AnswerBytes
	dst.TableNodes += s.TableNodes
	dst.ProvenanceBytes += s.ProvenanceBytes
	dst.PredsCompiled += s.PredsCompiled
	dst.CompileNanos += s.CompileNanos
}

// lockedTracer serializes Emit calls from concurrent shards onto one
// underlying tracer (obs.Trace is not safe for concurrent use). Event
// interleaving across groups is nondeterministic; per-predicate
// counter totals are not.
type lockedTracer struct {
	mu sync.Mutex
	t  obs.EngineTracer
}

func (lt *lockedTracer) Emit(kind obs.EventKind, pred string, n int) {
	lt.mu.Lock()
	lt.t.Emit(kind, pred, n)
	lt.mu.Unlock()
}

// ---- static dependency scan ----

// predScan is the memoized direct-dependency summary of one predicate:
// the predicates its clause bodies can call and whether any body
// contains a construct the parallel scheduler cannot analyze.
type predScan struct {
	calls  []pkey
	unsafe bool
}

type depScan struct {
	m    *Machine
	memo map[pkey]*predScan
}

func newDepScan(m *Machine) *depScan {
	return &depScan{m: m, memo: map[pkey]*predScan{}}
}

// goalCone returns the set of tabled predicates statically reachable
// from goal, walking through control constructs and non-tabled
// predicate bodies. safe is false when the walk meets an unbound goal,
// a metacall it cannot resolve, or a parallel-unsafe builtin.
func (s *depScan) goalCone(goal term.Term) (cone map[pkey]struct{}, safe bool) {
	d := &predScan{}
	s.scanGoal(goal, d)
	if d.unsafe {
		return nil, false
	}
	cone = map[pkey]struct{}{}
	visited := map[pkey]bool{}
	work := d.calls
	for len(work) > 0 {
		pk := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[pk] {
			continue
		}
		visited[pk] = true
		if effectBuiltins[pk] { // effects escape the shard
			return nil, false
		}
		if _, isBuiltin := s.m.builtins[pk]; isBuiltin {
			continue
		}
		p, defined := s.m.preds[pk]
		if !defined {
			// Undefined predicate: calling it throws in every mode, with
			// no table interaction to analyze. Leave the error to the
			// shard that evaluates it.
			continue
		}
		if p.Tabled {
			cone[pk] = struct{}{}
		}
		ps := s.scanPred(pk, p)
		if ps.unsafe {
			return nil, false
		}
		work = append(work, ps.calls...)
	}
	return cone, true
}

// scanPred summarizes p's clause bodies, memoized per predicate.
func (s *depScan) scanPred(pk pkey, p *Pred) *predScan {
	if ps, ok := s.memo[pk]; ok {
		return ps
	}
	ps := &predScan{}
	s.memo[pk] = ps // pre-publish so recursive predicates terminate
	for _, cl := range p.Clauses {
		for _, g := range cl.Body {
			s.scanGoal(g, ps)
		}
	}
	return ps
}

// scanGoal records the predicates one body goal can invoke, descending
// into the control constructs solveG handles inline. Anything the scan
// cannot see through (unbound goals, call/N on a variable) marks the
// summary unsafe.
func (s *depScan) scanGoal(goal term.Term, d *predScan) {
	goal = term.Deref(goal)
	switch goal.(type) {
	case *term.Var, term.Int:
		d.unsafe = true
		return
	}
	f, args, ok := term.FunctorArity(goal)
	if !ok {
		d.unsafe = true
		return
	}
	switch {
	case len(args) == 0 && (f == "true" || f == "fail" || f == "false" || f == "!"):
		return
	case len(args) == 2 && (f == "," || f == ";" || f == "->"):
		s.scanGoal(args[0], d)
		s.scanGoal(args[1], d)
		return
	case len(args) == 1 && (f == "\\+" || f == "not" || f == "once"):
		s.scanGoal(args[0], d)
		return
	case f == "call" && len(args) >= 1:
		g := term.Deref(args[0])
		if len(args) == 1 {
			s.scanGoal(g, d)
			return
		}
		name, base, callable := term.FunctorArity(g)
		if !callable {
			d.unsafe = true
			return
		}
		d.calls = append(d.calls, pkey{name: name, arity: len(base) + len(args) - 1})
		return
	case f == "findall" && len(args) == 3:
		s.scanGoal(args[1], d)
		return
	case f == "forall" && len(args) == 2:
		s.scanGoal(args[0], d)
		s.scanGoal(args[1], d)
		return
	case f == "aggregate_all" && len(args) == 3:
		s.scanGoal(args[1], d)
		return
	}
	d.calls = append(d.calls, pkey{name: f, arity: len(args)})
}

// freeVars collects the distinct unbound variables of t.
func freeVars(t term.Term) []*term.Var {
	var out []*term.Var
	seen := map[*term.Var]bool{}
	var walk func(t term.Term)
	walk = func(t term.Term) {
		switch x := term.Deref(t).(type) {
		case *term.Var:
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		case *term.Compound:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(t)
	return out
}
