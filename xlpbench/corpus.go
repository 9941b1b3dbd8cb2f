package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/fl"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/supptab"
)

// family is one corpus workload: its programs, how to analyse one, and
// how to replay its front end call by call for the traced run.
type family struct {
	workload string // workload name
	prefix   string // analyzer name, the prefix of its layer names
	progs    []corpus.Program
	// layers maps the analyzer's Timeline phases to layer names.
	layers map[string]string
	// analyze runs one analysis; verify checks its result afterwards,
	// outside the timed region.
	analyze func(refs *refSet, p corpus.Program, tl *obs.Timeline, tr obs.EngineTracer) (out outcome, err error)
	// frontend replays the analyzer's front-end calls with a span around
	// each and returns the number of supplementary-table predicates.
	frontend func(rec *recorder, trace, parent int, p corpus.Program) (auxPreds int, err error)
}

// outcome is what one analysis reports through public result fields.
type outcome struct {
	tableBytes int
	stats      engine.Stats
	verify     func() error
}

// supptabMinLits is the body length from which strict.Analyze splits a
// clause into supplementary tables; the front-end replay uses the same.
const supptabMinLits = 3

var groundFamily = &family{
	workload: "ground-corpus",
	prefix:   "prop",
	progs:    corpus.LogicPrograms(),
	layers: map[string]string{
		"parse": "prolog.parse", "transform": "prop.transform",
		"load": "engine.load", "solve": "engine.solve", "collect": "prop.collect",
	},
	analyze: func(refs *refSet, p corpus.Program, tl *obs.Timeline, tr obs.EngineTracer) (outcome, error) {
		a, err := prop.Analyze(p.Source, prop.Options{Timeline: tl, Tracer: tr})
		if err != nil {
			return outcome{}, err
		}
		return outcome{a.TableBytes, a.EngineStats, func() error { return refs.checkGround(p.Name, a) }}, nil
	},
	frontend: func(rec *recorder, trace, parent int, p corpus.Program) (int, error) {
		id := rec.open(trace, parent, "prolog.parse", p.Name)
		clauses, err := prolog.ParseProgram(p.Source)
		rec.close(id)
		if err != nil {
			return 0, err
		}
		id = rec.open(trace, parent, "prop.transform", p.Name)
		_, err = prop.Transform(clauses)
		rec.close(id)
		return 0, err
	},
}

var strictFamily = &family{
	workload: "strict-corpus",
	prefix:   "strict",
	progs:    corpus.FuncPrograms(),
	layers: map[string]string{
		"parse": "fl.parse", "transform": "strict.transform",
		"load": "engine.load", "solve": "engine.solve", "collect": "strict.collect",
	},
	analyze: func(refs *refSet, p corpus.Program, tl *obs.Timeline, tr obs.EngineTracer) (outcome, error) {
		a, err := strict.Analyze(p.Source, strict.Options{Timeline: tl, Tracer: tr})
		if err != nil {
			return outcome{}, err
		}
		return outcome{a.TableBytes, a.EngineStats, func() error { return refs.checkStrict(p.Name, a) }}, nil
	},
	frontend: func(rec *recorder, trace, parent int, p corpus.Program) (int, error) {
		id := rec.open(trace, parent, "fl.parse", p.Name)
		prog, err := fl.Parse(p.Source)
		rec.close(id)
		if err != nil {
			return 0, err
		}
		id = rec.open(trace, parent, "strict.transform", p.Name)
		tf, err := strict.Transform(prog)
		rec.close(id)
		if err != nil {
			return 0, err
		}
		id = rec.open(trace, parent, "supptab.transform", p.Name)
		st := supptab.Transform(tf.Clauses, supptabMinLits)
		rec.close(id)
		return len(st.Tabled), nil
	},
}

// familyNamed returns the corpus family of a workload, or nil.
func familyNamed(workload string) *family {
	for _, f := range []*family{groundFamily, strictFamily} {
		if f.workload == workload {
			return f
		}
	}
	return nil
}

// sweepSample is one pass over every program of a family.
type sweepSample struct {
	raw     time.Duration  // summed analysis wall time
	norm    float64        // summed normalized analysis CPU time, ms
	perProg []float64      // normalized analysis CPU time, ms, indexed like family.progs
	alloc   uint64         // bytes the analyses allocated
	table   int            // summed Analysis.TableBytes
	stats   []engine.Stats // per program
}

// corpusBench runs sweeps of one family.
type corpusBench struct {
	fam   *family
	refs  *refSet
	rng   *rand.Rand
	tally *tally
	cals  *calLog
	// double names a program that every sweep analyses twice, each time
	// from a collected heap, timed together as one operation: the
	// injected slowdown of the sensitivity self-test. Empty in benchmark
	// runs.
	double string
}

func newCorpusBench(fam *family, cfg config) *corpusBench {
	return &corpusBench{fam: fam, refs: cfg.refs, rng: rand.New(rand.NewSource(cfg.seed)), tally: cfg.tally, cals: cfg.cals, double: cfg.double}
}

// calibration returns the calibration to normalize the next analysis
// with, calibrating first (as a span of the trace, when traced) if the
// latest calibration is older than calEvery.
func (b *corpusBench) calibration(rec *recorder, trace, parent int) time.Duration {
	if b.cals.stale() {
		id := rec.open(trace, parent, "calibrate", "")
		b.cals.calibrate(runtime.NumCPU(), false)
		rec.close(id)
	}
	return b.cals.recent()
}

// sweep analyses every program once in a seeded order, calibrating
// between analyses. With rec set, the sweep is one trace: a root
// span, one span per analysis and one child span per Timeline phase.
//
// Each analysis starts from a collected heap that holds only the
// benchmark's own state, as in a fresh process: its result is checked
// and dropped before the next one starts. Otherwise its collection work
// would depend on what its predecessors in the seeded order left on the
// heap. The check and the collection lie outside the timed region and
// outside the allocation count.
func (b *corpusBench) sweep(rec *recorder) sweepSample {
	n := len(b.fam.progs)
	order := b.rng.Perm(n)
	s := sweepSample{perProg: make([]float64, n), stats: make([]engine.Stats, n)}
	trace := rec.newTrace()
	root := rec.open(trace, 0, "sweep", b.fam.workload)
	raw := make([]time.Duration, n)   // wall time, by position in order
	cpu := make([]time.Duration, n)   // process CPU time, by position in order
	cal := make([]time.Duration, n+1) // calibration before each analysis, and after the last
	var m0, m1 runtime.MemStats
	for k, i := range order {
		p := b.fam.progs[i]
		cal[k] = b.calibration(rec, trace, root)
		reps := 1
		if p.Name == b.double {
			reps = 2
		}
		for r := 0; r < reps; r++ {
			id := rec.open(trace, root, "gc", "")
			runtime.GC()
			rec.close(id)
			runtime.ReadMemStats(&m0)
			t0, c0 := time.Now(), processCPU()
			out, err := b.analyzeOne(rec, trace, root, p)
			raw[k] += time.Since(t0)
			cpu[k] += processCPU() - c0
			runtime.ReadMemStats(&m1)
			s.alloc += m1.TotalAlloc - m0.TotalAlloc
			if err == nil {
				err = out.verify()
			}
			if !b.tally.record(err) {
				continue
			}
			if r == 0 {
				s.table += out.tableBytes
				s.stats[i] = out.stats
			}
		}
	}
	cal[n] = b.calibration(rec, trace, root)
	rec.close(root)
	// An analysis is normalized by the mean of the calibrations before
	// and after it: a long one spans a change of host speed.
	for k, i := range order {
		s.raw += raw[k]
		s.perProg[i] = normMs(cpu[k], (cal[k]+cal[k+1])/2)
		s.norm += s.perProg[i]
	}
	return s
}

func (b *corpusBench) analyzeOne(rec *recorder, trace, parent int, p corpus.Program) (outcome, error) {
	if rec == nil {
		return b.fam.analyze(b.refs, p, nil, nil)
	}
	tl := obs.NewTimeline()
	origin := time.Now()
	id := rec.open(trace, parent, b.fam.prefix+".analyze", p.Name)
	out, err := b.fam.analyze(b.refs, p, tl, nil)
	rec.close(id)
	for _, ph := range tl.Phases() {
		rec.add(trace, id, b.fam.layers[ph.Name], p.Name, origin.Add(ph.Start), origin.Add(ph.Start+ph.Dur))
	}
	return out, err
}

// sweepsFor runs sweeps until d has passed and at least minSweeps ran.
func (b *corpusBench) sweepsFor(d time.Duration, minSweeps int, rec *recorder) []sweepSample {
	var out []sweepSample
	deadline := time.Now().Add(d)
	for len(out) < minSweeps || time.Now().Before(deadline) {
		out = append(out, b.sweep(rec))
	}
	return out
}

// corpusSummary condenses sweeps into the end-to-end metrics. Times are
// normalized (see calib.go) unless named raw.
type corpusSummary struct {
	sweeps      int
	sweepMs     float64            // median sweep time
	sweepRawMs  float64            // median raw sweep time
	analysisP99 float64            // p99 analysis time
	geomeanMs   float64            // geomean of per-program lower quartiles
	perProgMs   map[string]float64 // per-program lower quartile
	reqPerS     float64            // analyses per second of sweep time
	allocMB     float64            // median megabytes allocated per sweep
	tableMB     float64            // table megabytes per sweep
	stats       engine.Stats       // engine counters per sweep
	perProgCnt  map[string]engine.Stats
}

// progQuantile is the quantile of a program's analysis times that
// stands for the program in geomean_ms and <analyzer>.analyze_ms.<prog>.
// Interference from the host only ever adds time to an analysis, so the
// lower quartile moves less from run to run than the median, and still
// moves with the program's own cost.
const progQuantile = 0.25

func summarize(fam *family, sweeps []sweepSample) corpusSummary {
	s := corpusSummary{sweeps: len(sweeps), perProgMs: map[string]float64{}, perProgCnt: map[string]engine.Stats{}}
	var norms, raws, allocs []float64
	total := 0.0
	for _, sw := range sweeps {
		norms = append(norms, sw.norm)
		raws = append(raws, ms(sw.raw))
		allocs = append(allocs, float64(sw.alloc)/1e6)
		total += sw.norm
	}
	s.sweepMs = median(norms)
	s.sweepRawMs = median(raws)
	var all []float64
	for _, sw := range sweeps {
		all = append(all, sw.perProg...)
	}
	s.analysisP99 = quantile(all, 0.99)
	s.allocMB = median(allocs)
	s.reqPerS = float64(len(sweeps)*len(fam.progs)) / (total / 1e3)
	last := sweeps[len(sweeps)-1]
	s.tableMB = float64(last.table) / 1e6
	var meds []float64
	for i, p := range fam.progs {
		var xs []float64
		for _, sw := range sweeps {
			xs = append(xs, sw.perProg[i])
		}
		s.perProgMs[p.Name] = quantile(xs, progQuantile)
		meds = append(meds, s.perProgMs[p.Name])
		st := last.stats[i]
		s.perProgCnt[p.Name] = st
		s.stats.Resolutions += st.Resolutions
		s.stats.Subgoals += st.Subgoals
		s.stats.Answers += st.Answers
		s.stats.ProducerPasses += st.ProducerPasses
		s.stats.TableNodes += st.TableNodes
	}
	s.geomeanMs = geomean(meds)
	return s
}

// endToEnd maps a corpus summary to the end-to-end metrics. The analysis
// times fall into one cluster per program with equal counts, so their
// median would sit between two clusters: latency_ms_p50 is the median
// sweep time (one corpus request, equal to sweep_ms), latency_ms_p99 the
// 99th percentile of the analysis times.
func (s corpusSummary) endToEnd(m metrics, setup float64) {
	m.set("setup_s", setup, "s")
	m.set("sweep_ms", s.sweepMs, "ms")
	m.set("geomean_ms", s.geomeanMs, "ms")
	m.set("alloc_mb", s.allocMB, "MB")
	m.set("table_mb", s.tableMB, "MB")
	m.set("req_per_s", s.reqPerS, "1/s")
	m.set("latency_ms_p50", s.sweepMs, "ms")
	m.set("latency_ms_p99", s.analysisP99, "ms")
}

// corpusSetups is how many set-ups a corpus run measures.
const corpusSetups = 3

// setupReport is what a set-up child process prints as its last line.
type setupReport struct {
	CPUNs     int64    `json:"cpu_ns"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errs      []string `json:"errs,omitempty"`
}

// setupChild is one corpus set-up, made in a child process of its own:
// the process starts and analyses every program of the workload once,
// in a seeded order. It prints the process CPU time from its start to
// the end of the last analysis, which takes in runtime and package
// initialisation and each analyzer's first calls, then the outcome of
// checking the results. The references load after the timed part: they
// are the benchmark's own work.
func setupChild(workload string, seed int64) error {
	fam := familyNamed(workload)
	if fam == nil {
		return fmt.Errorf("no corpus workload %q", workload)
	}
	refs := &refSet{} // filled in after the timed part, before any check reads it
	t := &tally{}
	var outs []outcome
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(fam.progs)) {
		out, err := fam.analyze(refs, fam.progs[i], nil, nil)
		if err != nil {
			t.record(fmt.Errorf("%s: %w", fam.progs[i].Name, err))
			continue
		}
		outs = append(outs, out)
	}
	cpu := processCPU()
	loaded, err := loadRefs()
	if err != nil {
		return err
	}
	*refs = *loaded
	for _, out := range outs {
		t.record(out.verify())
	}
	line, err := json.Marshal(setupReport{int64(cpu), t.attempted, t.failed, t.errs})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUpCorpus makes corpusSetups set-ups, each a child process (setupChild),
// with a calibration before the first and after each, and returns the
// median normalized set-up time in seconds.
func setUpCorpus(fam *family, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	before := cfg.cals.calibrate(runtime.NumCPU(), false)
	for k := 0; k < corpusSetups; k++ {
		var stdout bytes.Buffer
		seed := strconv.FormatInt(cfg.seed*corpusSetups+int64(k), 10)
		cmd := exec.Command(exe, "--setup-child", "--workload", fam.workload, "--seed", seed)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r setupReport
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		cfg.tally.merge(r.Attempted, r.Failed, r.Errs)
		after := cfg.cals.calibrate(runtime.NumCPU(), false)
		times = append(times, normMs(time.Duration(r.CPUNs), (before+after)/2)/1e3)
		before = after
	}
	return median(times), nil
}

// runCorpus is the untraced corpus workload: the set-ups, one untimed,
// checked warm-up sweep, then timed sweeps for the run's seconds.
func runCorpus(fam *family, cfg config) (metrics, error) {
	setup, err := setUpCorpus(fam, cfg)
	if err != nil {
		return nil, err
	}
	b := newCorpusBench(fam, cfg)
	b.sweep(nil)
	sweeps := b.sweepsFor(cfg.seconds, 3, nil)
	sum := summarize(fam, sweeps)
	cfg.logf("%s: %d sweeps (percentile supported: %s) of %d programs, %d analyses (supported: %s); median calibration %v",
		fam.workload, sum.sweeps, supportedPercentile(sum.sweeps), len(fam.progs), sum.sweeps*len(fam.progs),
		supportedPercentile(sum.sweeps*len(fam.progs)), cfg.cals.median())
	for _, p := range fam.progs {
		cfg.logf("%s: %-10s lower quartile %9.3f ms", fam.workload, p.Name, sum.perProgMs[p.Name])
	}
	m := metrics{}
	sum.endToEnd(m, setup)
	return m, nil
}

// corpusLayers holds what a traced pass over one family measured.
type corpusLayers struct {
	untraced, traced corpusSummary
	layers           map[string]float64 // per-sweep self time by layer, ms
	frontend         map[string]float64 // per-pass replayed front-end time by layer, ms
	phaseShare       float64            // share of traced analysis time the phases cover
	auxPreds         int
	answerShare      float64 // answers in sup__* tables over all answers
	dupRatio         float64 // duplicates over answers+duplicates
}

// traceCorpus measures one family for the per-layer metrics: untraced
// sweeps (per-program lower quartiles and counters), traced sweeps
// (layer self times), front-end replays and one sweep with an engine
// tracer for the per-predicate answer counters.
func traceCorpus(fam *family, cfg config, rec *recorder, untracedFor, tracedFor time.Duration, minUntraced, minTraced int) corpusLayers {
	b := newCorpusBench(fam, cfg)
	b.sweep(nil) // warm-up
	var cl corpusLayers
	cl.untraced = summarize(fam, b.sweepsFor(untracedFor, minUntraced, nil))
	cl.traced = summarize(fam, b.sweepsFor(tracedFor, minTraced, rec))
	// Span times are raw; scale them as the traced sweeps were
	// normalized.
	scale := cl.traced.sweepMs / cl.traced.sweepRawMs
	cl.layers = scaleAll(layerMedians(rec.snapshot(), "sweep", fam.workload), scale)
	cl.phaseShare = phaseShare(rec.snapshot(), fam)

	// Front-end replay, one trace per pass.
	passes := max(minTraced, 3)
	for i := 0; i < passes; i++ {
		trace := rec.newTrace()
		root := rec.open(trace, 0, "frontend", fam.workload)
		aux := 0
		for _, p := range fam.progs {
			n, err := fam.frontend(rec, trace, root, p)
			cfg.tally.record(err)
			aux += n
		}
		rec.close(root)
		cl.auxPreds = aux
	}
	cl.frontend = scaleAll(layerMedians(rec.snapshot(), "frontend", fam.workload), scale)

	// Per-predicate counters from the engine tracer.
	var sup, answers, dups int
	for _, p := range fam.progs {
		tr := obs.NewTrace(1)
		out, err := fam.analyze(cfg.refs, p, nil, tr)
		if err == nil {
			err = out.verify()
		}
		cfg.tally.record(err)
		for _, pc := range tr.PredStats() {
			answers += pc.Answers
			dups += pc.Duplicates
			if strings.HasPrefix(pc.Pred, "sup__") {
				sup += pc.Answers
			}
		}
	}
	if answers > 0 {
		cl.answerShare = float64(sup) / float64(answers)
	}
	if answers+dups > 0 {
		cl.dupRatio = float64(dups) / float64(answers+dups)
	}
	return cl
}

// perLayer adds a family's own per-layer metrics.
func (cl corpusLayers) perLayer(fam *family, m metrics) {
	for _, p := range fam.progs {
		m.set(fam.prefix+".analyze_ms."+p.Name, cl.untraced.perProgMs[p.Name], "ms")
		st := cl.untraced.perProgCnt[p.Name]
		m.set("engine.answers."+p.Name, float64(st.Answers), "count")
		m.set("engine.table_nodes."+p.Name, float64(st.TableNodes), "count")
	}
	m.set(fam.prefix+".collect_ms", cl.layers[fam.prefix+".collect"], "ms")
	for layer, v := range cl.frontend {
		if layer != "frontend" {
			m.set(layer+"_ms", v, "ms")
		}
	}
	if fam == strictFamily {
		m.set("supptab.aux_preds", float64(cl.auxPreds), "count")
		m.set("supptab.answer_share", cl.answerShare, "ratio")
		m.set("engine.dup_ratio", cl.dupRatio, "ratio")
		m.set("engine.table_nodes", float64(cl.untraced.stats.TableNodes), "count")
	}
}

// addShared adds the engine metrics both corpus workloads share to m,
// summing with values already there.
func (cl corpusLayers) addShared(m metrics) {
	st := cl.untraced.stats
	m.add("engine.load_ms", cl.layers["engine.load"], "ms")
	m.add("engine.solve_ms", cl.layers["engine.solve"], "ms")
	m.add("engine.resolutions", float64(st.Resolutions), "count")
	m.add("engine.subgoals", float64(st.Subgoals), "count")
	m.add("engine.answers", float64(st.Answers), "count")
	m.add("engine.producer_passes", float64(st.ProducerPasses), "count")
}

func scaleAll(xs map[string]float64, f float64) map[string]float64 {
	out := make(map[string]float64, len(xs))
	for k, v := range xs {
		out[k] = v * f
	}
	return out
}

// layerSum returns the sum of the median self times per sweep of the
// analyzer's Timeline phases, the layers an analysis is made of.
func (cl corpusLayers) layerSum(fam *family) float64 {
	sum := 0.0
	for _, layer := range fam.layers {
		sum += cl.layers[layer]
	}
	return sum
}

// phaseShare returns the share of the traced analyses' wall time, over
// the traced sweeps of fam, that the analyzer's Timeline phases cover.
func phaseShare(spans []span, fam *family) float64 {
	sweeps := map[int]bool{}
	for _, t := range rootsNamed(spans, "sweep", fam.workload) {
		sweeps[t] = true
	}
	analyses := map[int]bool{}
	var total, phases int64
	for _, s := range spans {
		if sweeps[s.Trace] && s.Name == fam.prefix+".analyze" {
			analyses[s.ID] = true
			total += s.End - s.Start
		}
	}
	for _, s := range spans {
		if analyses[s.Parent] {
			phases += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(phases) / float64(total)
}
