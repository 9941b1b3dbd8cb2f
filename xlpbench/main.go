// Command xlpbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every result against reference
// results, and prints every metric by name with its unit, then one JSON
// object on the last line of standard output:
//
//	xlpbench --workload ground-corpus|strict-corpus|service-mix \
//	         --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes the traced run instead and reports the per-layer metrics,
// writing the recorded spans as JSON lines to
// .bench_build/spans-<workload>-<seed>.jsonl. README.md
// describes the workloads, the metrics and which end-to-end metric each
// per-layer metric should move. Build and run it through run.sh from the
// root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// add sums v into the metric.
func (m metrics) add(name string, v float64, unit string) {
	m[name] = metric{m[name].Value + v, unit}
}

// tally counts checked operations and failures. It is safe for
// concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []string // the first few failures
}

// record counts one operation, failed when err is non-nil, and reports
// whether it succeeded.
func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// merge adds counts reported by a child process.
func (t *tally) merge(attempted, failed int, errs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += attempted
	t.failed += failed
	t.errs = append(t.errs, errs...)
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	refs    *refSet
	tally   *tally
	cals    *calLog
	workDir string    // scratch directory inside the checkout
	log     io.Writer // progress lines; nil discards them
	double  string    // corpusBench.double
}

func (c config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

var workloads = []string{"ground-corpus", "strict-corpus", "service-mix"}

// runWorkload makes the untraced run and returns the end-to-end metrics.
func runWorkload(name string, cfg config) (metrics, error) {
	switch name {
	case "ground-corpus":
		return runCorpus(groundFamily, cfg)
	case "strict-corpus":
		return runCorpus(strictFamily, cfg)
	case "service-mix":
		return runMix(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// companionFor is the budget of the traced passes over the workloads a
// traced run does not name: every traced run reports every layer.
const companionFor = 3 * time.Second

// traceWorkload makes the traced run. The named workload gets the whole
// budget: a corpus workload half untraced (the control for
// trace.overhead_pct) and half traced, service-mix a third untraced over
// HTTP, a third traced over HTTP and a third traced in process. The other
// two workloads get a short traced pass each, so that every per-layer
// metric is reported. The engine.* metrics both corpus workloads share
// come from the named corpus workload, or on service-mix from one pass
// over each corpus, summed.
func traceWorkload(name string, cfg config, rec *recorder) (metrics, error) {
	m := metrics{}
	half := cfg.seconds / 2
	var ground, strict corpusLayers
	switch name {
	case "ground-corpus":
		ground = traceCorpus(groundFamily, cfg, rec, half, half, 3, 3)
		strict = traceCorpus(strictFamily, cfg, rec, 0, 0, 1, 1)
		m.set("trace.overhead_pct", (ground.traced.sweepMs/ground.untraced.sweepMs-1)*100, "%")
		ground.addShared(m)
	case "strict-corpus":
		strict = traceCorpus(strictFamily, cfg, rec, half, half, 3, 3)
		ground = traceCorpus(groundFamily, cfg, rec, companionFor/2, companionFor/2, 10, 5)
		m.set("trace.overhead_pct", (strict.traced.sweepMs/strict.untraced.sweepMs-1)*100, "%")
		strict.addShared(m)
	case "service-mix":
		ml, err := traceMix(cfg, rec, cfg.seconds/3, cfg.seconds/3, cfg.seconds/3, 2)
		if err != nil {
			return nil, err
		}
		for k, v := range ml.m {
			m[k] = v
		}
		m.set("trace.overhead_pct", ml.overheadPct, "%")
		ground = traceCorpus(groundFamily, cfg, rec, companionFor/2, companionFor/2, 10, 5)
		strict = traceCorpus(strictFamily, cfg, rec, 0, 0, 1, 1)
		ground.addShared(m)
		strict.addShared(m)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	ground.perLayer(groundFamily, m)
	strict.perLayer(strictFamily, m)
	if name != "service-mix" {
		ml, err := traceMix(cfg, rec, 0, companionFor, companionFor, 4)
		if err != nil {
			return nil, err
		}
		for k, v := range ml.m {
			m[k] = v
		}
	}
	for _, cl := range []struct {
		fam *family
		l   corpusLayers
	}{{groundFamily, ground}, {strictFamily, strict}} {
		cfg.logf("%s: traced sweep %.1f ms, layer self times sum to %.1f ms (%.1f%% of analysis time), untraced sweep %.1f ms",
			cl.fam.workload, cl.l.traced.sweepMs, cl.l.layerSum(cl.fam), cl.l.phaseShare*100, cl.l.untraced.sweepMs)
	}
	return m, nil
}

func main() {
	workload := flag.String("workload", "", "workload: ground-corpus, strict-corpus or service-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics")
	genRefs := flag.String("gen-refs", "", "regenerate the reference results into this directory and exit")
	child := flag.Bool("setup-child", false, "make one set-up of a corpus workload and report it (the benchmark runs itself so)")
	flag.Parse()

	if *child {
		if err := setupChild(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "xlpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *genRefs != "" {
		if err := generateRefs(*genRefs); err != nil {
			fmt.Fprintln(os.Stderr, "xlpbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "xlpbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := config{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		refs:    refs,
		tally:   &tally{},
		cals:    &calLog{},
		workDir: workDir,
		log:     os.Stdout,
	}
	var m metrics
	if traced {
		rec := newRecorder()
		if m, err = traceWorkload(workload, cfg, rec); err != nil {
			return err
		}
		spansPath := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := rec.write(spansPath); err != nil {
			return err
		}
		cfg.logf("spans: %s", spansPath)
	} else if m, err = runWorkload(workload, cfg); err != nil {
		return err
	}

	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	t := cfg.tally
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "xlpbench: failed:", e)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
