package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// version is stamped via go build -ldflags "-X main.version=v1.2.3";
// empty falls back to the toolchain-embedded module version.
var version string

// analyzeFlags are the observability knobs shared by the analyze
// subcommands.
type analyzeFlags struct {
	fs       *flag.FlagSet
	entry    string
	k        int
	loadMode string
	bench    string
	phases   bool
	trace    string
	events   string
	top      int
	parallel int
}

func newAnalyzeFlags(name string, withK bool) *analyzeFlags {
	af := &analyzeFlags{fs: flag.NewFlagSet("xlp "+name, flag.ContinueOnError)}
	af.fs.StringVar(&af.entry, "entry", "", "entry goal or function for goal-directed analysis")
	if withK {
		af.fs.IntVar(&af.k, "k", 2, "term-depth bound")
	}
	af.fs.StringVar(&af.loadMode, "mode", "", "clause loading mode: dynamic (default) or closure")
	af.fs.StringVar(&af.bench, "bench", "", "analyze a named corpus benchmark instead of a file")
	af.fs.BoolVar(&af.phases, "phases", false, "print the phase-timing table (parse/transform/load/solve/collect)")
	af.fs.StringVar(&af.trace, "trace", "", "write a Chrome trace_event file (open in chrome://tracing)")
	af.fs.StringVar(&af.events, "events", "", "write engine events as JSONL")
	af.fs.IntVar(&af.top, "top", 0, "print the n largest tables by canonical bytes")
	af.fs.IntVar(&af.parallel, "parallel", 0, "intra-query parallelism for the solve phase (0 or 1 = sequential); results are identical")
	return af
}

// engine resolves -mode and -parallel to the engine configuration; an
// unknown mode name is reported via the error.
func (af *analyzeFlags) engine() (engine.Config, error) {
	cfg := engine.Config{Limits: engine.Limits{MaxParallel: af.parallel}}
	switch af.loadMode {
	case "", "dynamic":
	case "closure":
		cfg.Mode = engine.ModeClosure
	default:
		return cfg, fmt.Errorf("unknown -mode %q (want dynamic or closure)", af.loadMode)
	}
	return cfg, nil
}

// tracer returns a Trace when any trace-consuming flag is set; tracing
// stays off (nil, zero engine overhead) otherwise.
func (af *analyzeFlags) tracer() *obs.Trace {
	if af.trace == "" && af.events == "" && af.top <= 0 {
		return nil
	}
	return obs.NewTrace(obs.DefaultTraceCap)
}

// source resolves the program text from -bench or the positional file.
func (af *analyzeFlags) source(stderr io.Writer) (src, name string, ok bool) {
	if af.bench != "" {
		p, err := corpus.Get(af.bench)
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return "", "", false
		}
		return p.Source, af.bench, true
	}
	args := af.fs.Args()
	if len(args) != 1 {
		fmt.Fprintf(stderr, "usage: xlp %s [flags] prog (or -bench name)\n", af.fs.Name())
		return "", "", false
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return "", "", false
	}
	return string(data), args[0], true
}

// report prints the observability outputs: phase table (checked against
// independent wall time), trace exports, and the top-tables view.
func (af *analyzeFlags) report(stdout, stderr io.Writer, tl *obs.Timeline, tr *obs.Trace, wall time.Duration) int {
	if af.phases {
		tl.WriteTable(stdout)
		fmt.Fprintf(stdout, "%-12s %12.3fms\n", "wall", float64(wall.Nanoseconds())/1e6)
	}
	if af.top > 0 && tr != nil {
		fmt.Fprintln(stdout, "top tables:")
		for _, pc := range tr.TopTables(af.top) {
			fmt.Fprintf(stdout, "  %-24s %8d bytes  %6d subgoals  %8d answers  %6d dups  %10d resolutions\n",
				pc.Pred, pc.TableBytes, pc.Subgoals, pc.Answers, pc.Duplicates, pc.Resolutions)
		}
	}
	if af.trace != "" && tr != nil {
		if err := writeFileWith(af.trace, func(w io.Writer) error { return tr.WriteChromeTrace(w, tl) }); err != nil {
			fmt.Fprintf(stderr, "xlp: writing %s: %v\n", af.trace, err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %s (%d events, %d dropped)\n", af.trace, len(tr.Events()), tr.Dropped())
	}
	if af.events != "" && tr != nil {
		if err := writeFileWith(af.events, tr.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "xlp: writing %s: %v\n", af.events, err)
			return 2
		}
	}
	return 0
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAnalyze dispatches the groundness/strictness/depthk subcommands.
// The default output is a summary line plus a per-predicate (or
// per-function) listing; -json prints the analysis service's response
// document instead, so CLI and server output are schema-identical.
func runAnalyze(kind string, args []string, stdout, stderr io.Writer) int {
	af := newAnalyzeFlags(kind, kind == "depthk")
	asJSON := af.fs.Bool("json", false, "emit the analysis-service response JSON instead of the listing")
	noSupp := new(bool)
	if kind == "strictness" {
		noSupp = af.fs.Bool("nosupp", false, "disable supplementary tabling")
	}
	af.fs.SetOutput(stderr)
	if err := af.fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := af.engine()
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return 2
	}
	src, name, ok := af.source(stderr)
	if !ok {
		return 2
	}
	var entry []string
	if af.entry != "" {
		entry = []string{af.entry}
	}
	tl := obs.NewTimeline()
	tr := af.tracer()
	var tracer obs.EngineTracer
	if tr != nil {
		tracer = tr
	}

	start := time.Now()
	var resp *service.Response
	var listing strings.Builder
	switch kind {
	case "groundness":
		a, err := prop.Analyze(src, prop.Options{Engine: cfg, Entry: entry, Timeline: tl, Tracer: tracer})
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return 1
		}
		resp = service.FromGroundness(a)
		fmt.Fprintf(&listing, "%s: Prop groundness: %d predicates, %d subgoals, %d answers, tables %d bytes\n",
			name, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
		for _, r := range a.Sorted() {
			if entry != nil && !r.Reachable {
				fmt.Fprintf(&listing, "  %-16s unreachable\n", r.Indicator)
				continue
			}
			fmt.Fprintf(&listing, "  %-16s success: %s\n", r.Indicator, r.FormatSuccess())
			fmt.Fprintf(&listing, "  %-16s ground args: %s\n", "", boolVec(r.GroundArgs))
			if len(r.Calls) > 0 {
				pats := make([]string, len(r.Calls))
				for i, c := range r.Calls {
					pats[i] = c.String()
				}
				fmt.Fprintf(&listing, "  %-16s call patterns: %s\n", "", strings.Join(pats, " "))
			}
		}
	case "strictness":
		a, err := strict.Analyze(src, strict.Options{Engine: cfg, Entry: entry,
			NoSupplementary: *noSupp, Timeline: tl, Tracer: tracer})
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return 1
		}
		resp = service.FromStrictness(a)
		fmt.Fprintf(&listing, "%s: strictness: %d functions, %d subgoals, %d answers, tables %d bytes\n",
			name, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
		for _, r := range a.Sorted() {
			fmt.Fprintf(&listing, "  %s\n", r)
			for i := 0; i < r.Arity; i++ {
				if r.Strict(i) {
					fmt.Fprintf(&listing, "    strict in argument %d (demand %s under head demand)\n",
						i+1, r.UnderD[i])
				}
			}
		}
	case "depthk":
		a, err := depthk.Analyze(src, depthk.Options{K: af.k, Engine: cfg, Entry: entry, Timeline: tl, Tracer: tracer})
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return 1
		}
		resp = service.FromDepthK(a)
		fmt.Fprintf(&listing, "%s: depth-%d groundness: %d predicates, %d subgoals, %d answers, tables %d bytes\n",
			name, a.K, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
		for _, ind := range sortedKeys(a.Results) {
			r := a.Results[ind]
			fmt.Fprintf(&listing, "  %-16s ground args: %s\n    patterns: %s\n",
				ind, boolVec(r.GroundArgs), r.Format())
		}
	default:
		fmt.Fprintf(stderr, "xlp: unknown analysis %q\n", kind)
		return 2
	}
	wall := time.Since(start)

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprint(stdout, listing.String())
	}
	return af.report(stdout, stderr, tl, tr, wall)
}

// boolVec renders per-argument groundness as (g,?,...).
func boolVec(bs []bool) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		if b {
			parts[i] = "g"
		} else {
			parts[i] = "?"
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// runVersion implements "xlp version".
func runVersion(stdout io.Writer) int {
	fmt.Fprintln(stdout, "xlp", obs.Build(version))
	return 0
}
