package engine

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// subgoal is one entry in the call table: a tabled call (up to variance)
// together with its answers and fixpoint bookkeeping.
//
// Completion discipline. Subgoals are numbered by creation order (dfn).
// While a subgoal's producer runs it is "active". A producer pass that
// reaches an active subgoal records a dependency by lowering the
// caller's minlink; a pass that reaches an inactive incomplete subgoal
// re-enters its producer (it may have new answers to derive now that
// older tables have grown). A producer iterates until a full pass over
// its clauses adds no answer anywhere in the machine. On exit, a subgoal
// whose minlink reaches below its own dfn is left incomplete and
// propagates the link to its parent; a subgoal whose minlink equals its
// dfn is an SCC leader and completes every incomplete subgoal created
// since it (all of which belong to its region — had any of them depended
// below the leader, the link would have propagated to the leader and it
// would not be a leader).
//
// Semi-naive re-passes (seminaive.go). A re-pass does not re-derive the
// answer combinations its previous pass already derived: each consumer
// edge in watchers carries the consumer's watermark over the table (the
// smallest answer index its read loops reached in its last pass), and
// at a clause's pruning point a derivation path that has read only old
// answers iterates only the new answers of the pruning call. Passes and
// answers are those of the naive iteration; only duplicate derivations
// are skipped.
type subgoal struct {
	key  string    // canonical call key (TablesStringMap only)
	goal term.Term // detached copy of the call
	pred *Pred
	idx  int // creation index in m.subgoals; first half of an AnswerRef

	answers    []term.Term // detached instances of goal, insertion order
	answersGnd []bool      // per-answer: ground (no rename needed on use)
	// justs holds one justification per answer, index-aligned with
	// answers; nil unless the machine records provenance.
	justs []*Just
	// provMark is the premise-stack depth at the current producer
	// activation's entry: addAnswer's premises are the refs above it.
	provMark int
	// Answer dedup index: answerKeys under TablesStringMap, ansTrie
	// under TablesTrie.
	answerKeys map[string]struct{}
	ansTrie    *term.Trie

	complete     bool
	active       bool
	dfn          int
	minlink      int
	onComplStack bool
	// watchers are the subgoals that have consumed answers from this
	// table; when this table grows they (transitively) become dirty.
	// Each edge carries the consumer's semi-naive watermarks.
	watchers map[*subgoal]*watch
	// dirty marks that some (transitive) dependency's table has grown
	// since this subgoal's producer last reached its local fixpoint.
	// Only dirty subgoals are re-entered; without this, chains of
	// interdependent subgoals re-run each other quadratically or worse.
	dirty bool
	// sawIncomplete records whether the current producer pass consumed
	// any incomplete table. A pass that read only complete tables has
	// enumerated every derivation against fixed inputs, so no
	// confirmation pass is needed.
	sawIncomplete bool

	// Semi-naive pass stamps (seminaive.go): snPass counts the passes
	// started, snGen is the program generation when the last one
	// started, snDone says it ran to its end, and snPrev says the
	// running pass may use the watermarks of the pass before.
	snPass, snGen  int
	snDone, snPrev bool
}

// solveTabled resolves a call to a tabled predicate through the table.
func (m *Machine) solveTabled(p *Pred, goal term.Term, k func() bool) bool {
	lookup := goal
	if m.CallAbstraction != nil {
		// Table the abstracted (more general) call; its answers are
		// matched against the original goal below, so the concrete call
		// sees exactly the answers that apply to it.
		lookup = m.CallAbstraction(term.Resolve(goal))
	}
	sg, created := m.lookupOrCreate(p, lookup)
	if created {
		m.runProducer(sg)
	} else if !sg.complete && !sg.active && sg.dirty {
		// Incomplete, not on the producer stack, and some dependency's
		// table has grown since its last local fixpoint: re-enter.
		m.runProducer(sg)
	}
	parent := m.curProducer()
	// edge is the consumer edge a read of an incomplete table records
	// its semi-naive watermark on.
	var edge *watch
	if !sg.complete && parent != nil {
		// Record the SCC dependency so no ancestor completes before
		// this subgoal's region does. An active subgoal links by its
		// own dfn; an inactive incomplete one by its discovered
		// minlink (it depends on something older still).
		link := sg.dfn
		if !sg.active && sg.minlink < link {
			link = sg.minlink
		}
		if link < parent.minlink {
			parent.minlink = link
		}
		// And subscribe the consumer for dirtiness propagation.
		if sg.watchers == nil {
			sg.watchers = map[*subgoal]*watch{}
		}
		edge = sg.watchers[parent]
		if edge == nil {
			edge = &watch{}
			sg.watchers[parent] = edge
		}
		parent.sawIncomplete = true
	}
	// old is the semi-naive watermark: answers below it are old for the
	// running producer (see seminaive.go). It stays 0 unless the
	// producer's previous pass ran to its end under the same program.
	old := 0
	if parent != nil && parent.snPrev && parent.snGen == m.progGen {
		w := edge
		if sg.complete {
			w = sg.watchers[parent]
		}
		if o, ok := w.old(parent); ok {
			old = o
		} else if sg.complete {
			// Not read while incomplete last pass: every read of it
			// then enumerated the complete table.
			old = len(sg.answers)
		}
	}
	start := 0
	if m.snNew == 0 && goal == m.snGoal {
		// The pruning point, reached by a path that read only old
		// answers: the old combinations were derived last pass.
		start = old
	}
	unify := term.Unify
	if m.AbstractUnify != nil {
		unify = m.AbstractUnify
	}
	for i := start; i < len(sg.answers); i++ {
		ans := sg.answers[i]
		if !sg.answersGnd[i] {
			// Answers with residual variables must be used via a fresh
			// renaming; ground answers (the common case) unify directly.
			ans, _ = term.Detach(ans)
		}
		mark := m.trail.Mark()
		if unify(goal, ans, &m.trail) {
			isNew := i >= old
			if isNew {
				m.snNew++
			}
			var stop bool
			if m.Provenance {
				// The continuation runs with this answer as a committed
				// premise of the derivation path (see provenance.go).
				m.premises = append(m.premises, AnswerRef{Subgoal: sg.idx, Answer: i})
				stop = k()
				m.premises = m.premises[:len(m.premises)-1]
			} else {
				stop = k()
			}
			if isNew {
				m.snNew--
			}
			if stop {
				m.trail.Undo(mark)
				if edge != nil {
					edge.record(parent, i)
				}
				return true
			}
		}
		m.trail.Undo(mark)
	}
	if edge != nil {
		edge.record(parent, len(sg.answers))
	}
	return false
}

// useTrie reports whether the machine's tables are trie-indexed.
func (m *Machine) useTrie() bool { return m.Tables != TablesStringMap }

// lookupOrCreate resolves lookup to its call-table entry, creating one
// (with the subgoal-limit check and table-space accounting) on first
// sight of the variant class. Under TablesTrie the lookup is one walk
// of the term; under TablesStringMap it materializes the canonical key.
func (m *Machine) lookupOrCreate(p *Pred, lookup term.Term) (sg *subgoal, created bool) {
	var charge, nodes int
	var leaf *term.TrieNode
	if m.useTrie() {
		if m.callTrie == nil {
			m.callTrie = term.NewTrie()
			m.callTrie.UseSymCache(m.syms())
		}
		var newNodes int
		leaf, newNodes = m.callTrie.Insert(lookup)
		if v, ok := leaf.Value(); ok {
			return v.(*subgoal), false
		}
		charge, nodes = newNodes*term.TrieNodeBytes, newNodes
	} else {
		key := term.Canonical(lookup)
		if sg, ok := m.tables[key]; ok {
			return sg, false
		}
		charge = len(key)
		sg = &subgoal{key: key}
	}
	if m.stats.Subgoals >= m.Limits.maxSubgoals() {
		m.throwErr(fmt.Errorf("%w (%d)", ErrSubgoalLimit, m.Limits.maxSubgoals()))
	}
	if sg == nil {
		sg = &subgoal{}
	}
	sg.goal, _ = term.Detach(lookup)
	sg.pred = p
	sg.idx = len(m.subgoals)
	if m.useTrie() {
		sg.ansTrie = term.NewTrie()
		sg.ansTrie.UseSymCache(m.syms())
		leaf.SetValue(sg)
	} else {
		sg.answerKeys = map[string]struct{}{}
		if m.tables == nil {
			m.tables = map[string]*subgoal{}
		}
		m.tables[sg.key] = sg
	}
	m.subgoals = append(m.subgoals, sg)
	m.stats.Subgoals++
	m.stats.CallBytes += charge
	m.stats.TableBytes += charge
	m.stats.TableNodes += nodes
	if m.tracer != nil {
		m.tracer.Emit(obs.EvSubgoalNew, p.Indicator, charge)
		if nodes > 0 {
			m.tracer.Emit(obs.EvTableNodes, p.Indicator, nodes)
		}
	}
	return sg, true
}

func (m *Machine) curProducer() *subgoal {
	if len(m.stack) == 0 {
		return nil
	}
	return m.stack[len(m.stack)-1]
}

// runProducer derives answers for sg by resolving its call against the
// predicate's clauses, iterating until a full pass adds no answer
// anywhere in the machine.
func (m *Machine) runProducer(sg *subgoal) {
	m.stats.ProducerRuns++
	if m.tracer != nil {
		m.tracer.Emit(obs.EvProducerRun, sg.pred.Indicator, 0)
	}
	if sg.dfn == 0 {
		m.nextDfn++
		sg.dfn = m.nextDfn
	}
	sg.minlink = sg.dfn
	sg.active = true
	// The semi-naive path state belongs to the producer whose derivation
	// called this one; this producer's passes start their own.
	outerGoal, outerNew := m.snGoal, m.snNew
	m.snNew = 0
	// Mark the premise stack for this activation: answers added by the
	// passes below list only premises consumed above this depth.
	sg.provMark = len(m.premises)
	m.stack = append(m.stack, sg)
	if !sg.onComplStack {
		sg.onComplStack = true
		m.complStack = append(m.complStack, sg)
	}

	for {
		// Local pass loop: resolve the call against the clauses until
		// neither this table nor a consumed dependency changes.
		for {
			m.stats.ProducerPasses++
			if m.tracer != nil {
				m.tracer.Emit(obs.EvProducerPass, sg.pred.Indicator, 0)
			}
			ownBefore := len(sg.answers)
			sg.dirty = false
			sg.sawIncomplete = false
			m.beginPass(sg)
			if m.Mode == ModeClosure {
				m.producePassClosure(sg)
			} else {
				for _, cl := range sg.pred.Clauses {
					m.stats.Resolutions++
					if m.tracer != nil {
						m.tracer.Emit(obs.EvResolutions, sg.pred.Indicator, 1)
					}
					mark := m.trail.Mark()
					m.snGoal = nil
					// nil cut barrier: cut may not cross a table boundary.
					m.activate(sg.goal, cl, nil, cl.sn.Body >= 0, func() bool {
						m.addAnswer(sg, sg.goal, cl)
						return false
					})
					m.trail.Undo(mark)
				}
			}
			sg.snDone = true
			// Re-pass only if something could change the outcome: a
			// pass that consumed no incomplete table is final, and
			// otherwise a pass that neither gained answers nor saw a
			// dependency grow is a fixpoint.
			if !sg.sawIncomplete {
				break
			}
			if len(sg.answers) == ownBefore && !sg.dirty {
				break
			}
		}
		if sg.minlink != sg.dfn {
			// Not an SCC leader: leave the region's stale members to
			// the leader's flush loop below.
			break
		}
		// Leader: dirtiness is propagated one dependency edge at a time
		// (an answer marks only its table's direct consumers), so before
		// completing, re-run any stale member of the region; its new
		// answers may dirty others (or this leader), in which case we
		// go around again. Re-running a member can complete nested
		// regions and pop the completion stack, so restart the scan
		// after every flush rather than holding an index across it.
		flushed := false
	rescan:
		for {
			for i := len(m.complStack) - 1; i >= 0; i-- {
				mem := m.complStack[i]
				if mem.dfn < sg.dfn {
					break
				}
				if mem != sg && mem.dirty && !mem.active {
					m.runProducer(mem)
					flushed = true
					continue rescan
				}
			}
			break
		}
		if !flushed && !sg.dirty {
			break
		}
	}
	sg.dirty = false
	m.snGoal, m.snNew = outerGoal, outerNew

	m.stack = m.stack[:len(m.stack)-1]
	sg.active = false
	if sg.minlink == sg.dfn && !m.regionHasActive(sg) {
		// Leader: complete the whole region created since sg.
		for len(m.complStack) > 0 {
			top := m.complStack[len(m.complStack)-1]
			if top.dfn < sg.dfn {
				break
			}
			top.complete = true
			top.onComplStack = false
			m.complStack = m.complStack[:len(m.complStack)-1]
			if m.tracer != nil {
				m.tracer.Emit(obs.EvComplete, top.pred.Indicator, 0)
			}
		}
		return
	}
	if parent := m.curProducer(); parent != nil && sg.minlink < parent.minlink {
		parent.minlink = sg.minlink
	}
}

// regionHasActive reports whether sg's completion region (the
// completion-stack entries numbered since sg) contains a subgoal whose
// producer frame is still running. Numbering order normally matches
// producer-stack order, but re-entering an inactive incomplete subgoal
// nests its (old, low-numbered) frame inside newer ones, so a subgoal
// can look like an SCC leader while a member's producer is still live
// below it on the call stack. Completing then freezes tables that the
// live frame goes on to extend — and answers added to a "complete"
// table no longer wake its consumers. Such a leader must defer
// completion to an outer leader instead.
func (m *Machine) regionHasActive(sg *subgoal) bool {
	for i := len(m.complStack) - 1; i >= 0; i-- {
		mem := m.complStack[i]
		if mem.dfn < sg.dfn {
			break
		}
		if mem != sg && mem.active {
			return true
		}
	}
	return false
}

// markWatchersDirty marks the direct consumers of sg's table as needing
// a producer re-run. Propagation is deliberately one edge deep: a
// consumer only becomes stale once its direct dependency actually gains
// answers, which its own re-run then signals onward. (Transitive marking
// would re-run whole SCCs for every answer.) The leader's flush loop in
// runProducer guarantees stale members are re-run before completion.
func markWatchersDirty(sg *subgoal) {
	for w := range sg.watchers {
		if !w.complete {
			w.dirty = true
		}
	}
}

// addAnswer records the current instance of the subgoal's call as an
// answer if it is not a variant of an existing answer (the paper's §2
// footnote: "only unique answers are entered in the table, and
// duplicates are filtered out using variant checks"). cl is the clause
// whose body derivation produced the instance; with provenance enabled
// the first (and only the first) derivation of each answer records it.
func (m *Machine) addAnswer(sg *subgoal, inst term.Term, cl *Clause) {
	if sg.complete {
		// A completed table is frozen: its consumers are never woken
		// again, so a late answer would be silently unobservable.
		m.throwf("internal: answer for completed table %v", sg.goal)
	}
	if m.AnswerAbstraction != nil {
		inst = m.AnswerAbstraction(term.Resolve(inst))
	}
	// Count answer derivations toward the context poll. Producer passes
	// re-derive recorded answers without re-entering solveG (a re-pass
	// skips only what the semi-naive rule proves old, and ineligible
	// clauses skip nothing), and per-answer cost grows with answer size,
	// so polling on solveG entries alone lets cancellation latency grow
	// without bound on divergent programs.
	if m.steps++; m.steps >= ctxCheckInterval {
		m.steps = 0
		m.checkCtx()
	}
	// Dedup through the table index: a trie walk (allocation-free on the
	// duplicate path, the hottest case — clauses without a semi-naive
	// pruning point re-derive every answer on each pass) or a
	// canonical-string map probe.
	var charge, nodes int
	var leaf *term.TrieNode
	var key string
	if sg.ansTrie != nil {
		var newNodes int
		leaf, newNodes = sg.ansTrie.Insert(inst)
		if _, dup := leaf.Value(); dup {
			if m.tracer != nil {
				m.tracer.Emit(obs.EvAnswerDup, sg.pred.Indicator, 0)
			}
			return
		}
		charge, nodes = newNodes*term.TrieNodeBytes, newNodes
	} else {
		key = term.Canonical(inst)
		if _, dup := sg.answerKeys[key]; dup {
			if m.tracer != nil {
				m.tracer.Emit(obs.EvAnswerDup, sg.pred.Indicator, 0)
			}
			return
		}
		charge = len(key)
	}
	if m.stats.Answers >= m.Limits.maxAnswers() {
		m.throwErr(fmt.Errorf("%w (%d)", ErrAnswerLimit, m.Limits.maxAnswers()))
	}
	var just *Just
	if m.Provenance {
		just = m.recordJust(sg, cl)
		sg.justs = append(sg.justs, just)
	}
	if leaf != nil {
		// The answer-trie leaf doubles as the dedup presence mark and
		// the justification anchor (nil value with provenance off).
		leaf.SetValue(just)
	} else {
		sg.answerKeys[key] = struct{}{}
	}
	detached, ground := term.Detach(inst)
	sg.answers = append(sg.answers, detached)
	sg.answersGnd = append(sg.answersGnd, ground)
	m.stats.Answers++
	m.stats.AnswerBytes += charge
	m.stats.TableBytes += charge
	m.stats.TableNodes += nodes
	if m.tracer != nil {
		m.tracer.Emit(obs.EvAnswerNew, sg.pred.Indicator, charge)
		if nodes > 0 {
			m.tracer.Emit(obs.EvTableNodes, sg.pred.Indicator, nodes)
		}
	}
	markWatchersDirty(sg)
}

// TableDump is a snapshot of one call-table entry, used by the analyses'
// collection phase: the recorded call gives the input (call) pattern and
// the answers give the output (success) patterns — the paper's "since
// the calls are anyway recorded, we do not have to pay an additional
// price for obtaining input modes".
type TableDump struct {
	Call     term.Term
	Answers  []term.Term
	Complete bool
}

// sortedSubgoals returns the (optionally indicator-filtered) table
// entries sorted by canonical call key — the historical iteration order
// of the string-keyed map, preserved under both implementations so
// collection phases see answers in a stable order. Cold path: dumps run
// once per analysis, after solving.
func (m *Machine) sortedSubgoals(indicator string) []*subgoal {
	var sgs []*subgoal
	for _, sg := range m.subgoals {
		if indicator == "" || sg.pred.Indicator == indicator {
			sgs = append(sgs, sg)
		}
	}
	sort.Slice(sgs, func(i, j int) bool {
		return m.callKey(sgs[i]) < m.callKey(sgs[j])
	})
	return sgs
}

// callKey returns the canonical call key of a table entry, computing it
// on demand under the trie implementation (which stores no strings).
func (m *Machine) callKey(sg *subgoal) string {
	if sg.key == "" {
		sg.key = term.Canonical(sg.goal)
	}
	return sg.key
}

// DumpTables returns snapshots of all call-table entries for the
// predicate with the given indicator ("name/arity"), sorted by call
// key. With an empty indicator it returns every entry.
func (m *Machine) DumpTables(indicator string) []TableDump {
	sgs := m.sortedSubgoals(indicator)
	out := make([]TableDump, 0, len(sgs))
	for _, sg := range sgs {
		out = append(out, TableDump{
			Call:     sg.goal,
			Answers:  append([]term.Term{}, sg.answers...),
			Complete: sg.complete,
		})
	}
	return out
}

// TableSpace returns the table-space measure of the call and answer
// tables, the analogue of the paper's "Table space (bytes)" column:
// canonical key bytes under TablesStringMap, allocated trie nodes times
// term.TrieNodeBytes under TablesTrie. It always equals
// CallSpace() + AnswerSpace().
func (m *Machine) TableSpace() int { return m.stats.TableBytes }

// CallSpace returns the table space charged to call-table keys.
func (m *Machine) CallSpace() int { return m.stats.CallBytes }

// AnswerSpace returns the table space charged to answer-table keys.
func (m *Machine) AnswerSpace() int { return m.stats.AnswerBytes }

// TableNodes returns the number of trie nodes backing the call and
// answer tables (0 under TablesStringMap).
func (m *Machine) TableNodes() int { return m.stats.TableNodes }

// DumpTablesString renders all tables for debugging and the cmd/xlp tool.
// Each call and answer numbers its unbound variables by first occurrence
// (term.Canonical: _0, _1, ...), so equal tables print byte-equal however
// many fresh variables the evaluation created.
func (m *Machine) DumpTablesString() string {
	var sb strings.Builder
	for _, sg := range m.sortedSubgoals("") {
		sb.WriteString(m.callKey(sg))
		if sg.complete {
			sb.WriteString("  [complete]\n")
		} else {
			sb.WriteString("  [incomplete]\n")
		}
		for _, a := range sg.answers {
			sb.WriteString("  ")
			sb.WriteString(term.Canonical(a))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
