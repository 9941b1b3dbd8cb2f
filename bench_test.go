// Benchmarks regenerating the paper's evaluation: one benchmark family
// per table/figure plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Absolute times differ from the paper's 1995 SPARCstations by orders of
// magnitude; EXPERIMENTS.md records the shape comparison.
package xlp

import (
	"context"
	"fmt"
	"testing"

	"xlp/internal/bddprop"
	"xlp/internal/bottomup"
	"xlp/internal/corpus"
	"xlp/internal/dataflow"
	"xlp/internal/depthk"
	"xlp/internal/difftest"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/randgen"
	"xlp/internal/service"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// BenchmarkTable1Groundness regenerates Table 1: Prop-based groundness
// analysis of the 12 logic benchmarks on the tabled engine.
func BenchmarkTable1Groundness(b *testing.B) {
	for _, p := range corpus.LogicPrograms() {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := prop.Analyze(p.Source, prop.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(a.TableBytes), "tablebytes")
			}
		})
	}
}

// BenchmarkTable2XSBvsGAIA regenerates Table 2: the declarative analyzer
// against the special-purpose abstract interpreter.
func BenchmarkTable2XSBvsGAIA(b *testing.B) {
	for _, p := range corpus.LogicPrograms() {
		b.Run("tabled/"+p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prop.Analyze(p.Source, prop.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("special/"+p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gaia.Analyze(p.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Strictness regenerates Table 3: strictness analysis of
// the 10 functional benchmarks.
func BenchmarkTable3Strictness(b *testing.B) {
	for _, p := range corpus.FuncPrograms() {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := strict.Analyze(p.Source, strict.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(a.LinesPerSecond(), "lines/s")
			}
		})
	}
}

// BenchmarkTable4DepthK regenerates Table 4: groundness with term-depth
// abstraction on the paper's 9-benchmark subset. read is the heavyweight
// of the table (as in the paper, where it dominates both time and table
// space).
func BenchmarkTable4DepthK(b *testing.B) {
	for _, p := range corpus.DepthKPrograms() {
		if p.Name == "read" && testing.Short() {
			continue
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := depthk.Analyze(p.Source, depthk.Options{K: 1, NoSupplementary: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(a.TableBytes), "tablebytes")
			}
		})
	}
}

// BenchmarkAblationDynamicVsCompiled regenerates the §4 preprocessing
// claim: assert-style dynamic loading vs clauses compiled to Go
// closures.
func BenchmarkAblationDynamicVsCompiled(b *testing.B) {
	for _, p := range corpus.LogicPrograms() {
		for _, mode := range []struct {
			name string
			m    engine.LoadMode
		}{{"dynamic", engine.LoadDynamic}, {"closure", engine.ModeClosure}} {
			b.Run(mode.name+"/"+p.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prop.Analyze(p.Source, prop.Options{Engine: engine.Config{Mode: mode.m}}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationEnumerativeVsBDD regenerates the §4 representation
// claim: enumerative truth tables vs BDDs.
func BenchmarkAblationEnumerativeVsBDD(b *testing.B) {
	for _, p := range corpus.LogicPrograms() {
		b.Run("enumerative/"+p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prop.Analyze(p.Source, prop.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("bdd/"+p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bddprop.Analyze(p.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSupplementaryTabling regenerates the §4.2 hypothesis:
// supplementary tabling of long equation bodies.
func BenchmarkAblationSupplementaryTabling(b *testing.B) {
	for _, name := range []string{"strassen", "odprove", "pcprove", "fft"} {
		p, err := corpus.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("plain/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strict.Analyze(p.Source, strict.Options{NoSupplementary: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("supp/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strict.Analyze(p.Source, strict.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7TabledVsBottomUp regenerates the §7 claim: a demand
// dataflow query evaluated tabled top-down, bottom-up to the full model,
// and bottom-up after the Magic-sets transformation.
func BenchmarkTable7TabledVsBottomUp(b *testing.B) {
	cfg := dataflow.Config{Procs: 8, NodesPerProc: 20, Vars: 5, Seed: 12}
	src := dataflow.Generate(cfg)
	query := dataflow.QueryProc(1)
	b.Run("tabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataflow.RunTabled(src, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottomup-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataflow.RunBottomUpFull(src, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottomup-magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataflow.RunBottomUpMagic(src, query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceThroughput measures the analysis service end to end
// (queue, worker pool, result cache): cold runs every request against a
// disabled cache, warm repeats one request against a primed cache. The
// baseline is recorded in BENCH_service.json.
func BenchmarkServiceThroughput(b *testing.B) {
	p, err := corpus.Get("qsort")
	if err != nil {
		b.Fatal(err)
	}
	req := &service.Request{Kind: service.KindGroundness, Source: p.Source}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		s := service.New(service.Config{CacheSize: -1, QueueSize: 1024})
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("warm", func(b *testing.B) {
		s := service.New(service.Config{QueueSize: 1024})
		defer s.Close()
		if _, err := s.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := s.Do(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkServiceShedding measures admission control under sustained
// overload. "admitted" is the control: the admission check plus a warm
// cache hit, i.e. what a well-behaved client pays once per request when
// rate limiting is on. "shed" drains the token bucket and then measures
// the fast-fail path alone — under overload the service must do
// strictly less work per rejected request than per served one, or
// shedding would not shed load. The baselines live alongside the
// throughput numbers in BENCH_service.json; TestServiceBenchGate
// enforces them.
func BenchmarkServiceShedding(b *testing.B) {
	p, err := corpus.Get("qsort")
	if err != nil {
		b.Fatal(err)
	}
	req := &service.Request{Kind: service.KindGroundness, Source: p.Source}
	ctx := context.Background()

	b.Run("admitted", func(b *testing.B) {
		s := service.New(service.Config{QueueSize: 1024, RateLimit: 1e9, RateBurst: 1 << 30})
		defer s.Close()
		if _, err := s.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := s.Admit("bench"); !ok {
				b.Fatal("shed under an effectively unbounded rate")
			}
			resp, err := s.Do(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("shed", func(b *testing.B) {
		s := service.New(service.Config{QueueSize: 1024, RateLimit: 1e-9, RateBurst: 1})
		defer s.Close()
		for {
			if ok, _ := s.Admit("bench"); !ok {
				break
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, retry := s.Admit("bench")
			if ok {
				b.Fatal("bucket refilled mid-benchmark")
			}
			if retry <= 0 {
				b.Fatal("shed without a retry hint")
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkLint measures the object-program linter itself (call graph,
// SCC condensation, full diagnostic set) over the two corpora; one op
// lints every program of a corpus. The baseline is in BENCH_lint.json.
func BenchmarkLint(b *testing.B) {
	b.Run("prolog-corpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range corpus.LogicPrograms() {
				if res := lint.Prolog(p.Source, lint.Options{}); res.Graph == nil {
					b.Fatalf("%s failed to parse", p.Name)
				}
			}
		}
	})
	b.Run("fl-corpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range corpus.FuncPrograms() {
				if res := lint.FL(p.Source, lint.Options{}); res.Graph == nil {
					b.Fatalf("%s failed to parse", p.Name)
				}
			}
		}
	})
}

// BenchmarkSliceGroundness measures what reachability slicing buys a
// goal-directed analysis: the workload is one entry predicate inside a
// source that concatenates all 12 logic benchmarks (a library and its
// unused neighbors). Goal-directed solving already ignores predicates
// the entry never calls, so the delta isolates the preprocessing the
// slice avoids — exactly the phase the paper found dominant (§4). The
// baseline is in BENCH_lint.json.
func BenchmarkSliceGroundness(b *testing.B) {
	var sb []byte
	for _, p := range corpus.LogicPrograms() {
		sb = append(sb, p.Source...)
		sb = append(sb, '\n')
	}
	src := string(sb)
	opts := prop.Options{Entry: []string{"qsort(L, S)"}}
	b.Run("unsliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prop.Analyze(src, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sliced", func(b *testing.B) {
		o := opts
		o.Slice = true
		for i := 0; i < b.N; i++ {
			a, err := prop.Analyze(src, o)
			if err != nil {
				b.Fatal(err)
			}
			if len(a.SlicedOut) == 0 {
				b.Fatal("nothing sliced out")
			}
		}
	})
}

// Micro-benchmarks of the substrates.

func BenchmarkEngineTabledPath(b *testing.B) {
	var sb []byte
	for i := 0; i < 64; i++ {
		sb = append(sb, fmt.Sprintf("edge(n%d, n%d).\n", i, i+1)...)
		if i%7 == 0 {
			sb = append(sb, fmt.Sprintf("edge(n%d, n%d).\n", i+1, i/2)...)
		}
	}
	src := string(sb) + `
		:- table path/2.
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := engine.New()
		if err := m.Consult(src); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Query("path(n0, W)"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineUnify(b *testing.B) {
	mk := func() term.Term {
		t := term.Term(term.Atom("a"))
		for i := 0; i < 30; i++ {
			t = term.Comp("f", t, term.NewVar("X"))
		}
		return t
	}
	t1, t2 := mk(), mk()
	var tr term.Trail
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mark := tr.Mark()
		if !term.Unify(t1, t2, &tr) {
			b.Fatal("unify failed")
		}
		tr.Undo(mark)
	}
}

func BenchmarkBottomUpSemiNaive(b *testing.B) {
	var sb []byte
	for i := 0; i < 64; i++ {
		sb = append(sb, fmt.Sprintf("edge(n%d, n%d).\n", i, (i*7+1)%64)...)
	}
	src := string(sb) + `
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bottomup.New()
		if err := s.Consult(src); err != nil {
			b.Fatal(err)
		}
		if _, err := s.SemiNaive(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead measures what the engine's tracing hooks cost.
// "disabled" is the default path — the tracer field is nil and every
// hook is one predicate-able branch — and must stay within 2% of the
// pre-instrumentation baseline (the acceptance bar; BENCH_obs.json
// records both). "enabled" installs a full Trace ring and shows the
// price of actually recording events. The workload is press1, the
// largest Table 1 benchmark.
func BenchmarkTraceOverhead(b *testing.B) {
	p, err := corpus.Get("press1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prop.Analyze(p.Source, prop.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace(obs.DefaultTraceCap)
			if _, err := prop.Analyze(p.Source, prop.Options{Tracer: tr}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProvenanceOverhead measures what the justification recorder
// costs. "disabled" is the default path — Machine.Provenance is false
// and every recording site is one branch — and must stay within noise
// of the tracing benchmark's disabled run (same workload, same bar;
// BENCH_obs.json records both and TestProvenanceBenchGate enforces it).
// "enabled" records a justification for every distinct tabled answer
// and shows the price of keeping full provenance. The workload is
// press1, the largest Table 1 benchmark.
func BenchmarkProvenanceOverhead(b *testing.B) {
	p, err := corpus.Get("press1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prop.Analyze(p.Source, prop.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prop.Analyze(p.Source, prop.Options{Provenance: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRandGen measures random object-program generation, the inner
// loop of both `xlp difftest` and the committed fuzz corpora. One
// iteration generates a program of every shape (distinct seeds, so no
// memoization can hide the cost).
func BenchmarkRandGen(b *testing.B) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		for _, shape := range randgen.Shapes() {
			p := randgen.Generate(randgen.Config{Shape: shape, Seed: int64(i)})
			bytes += int64(len(p.Source))
		}
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkDiffTest measures the full differential harness: generation
// plus every applicable backend-pair and metamorphic check, per
// program. This is the sustained cost of one `xlp difftest` program.
func BenchmarkDiffTest(b *testing.B) {
	sum, err := difftest.Run(difftest.Options{N: b.N, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if len(sum.Findings) > 0 {
		b.Fatalf("difftest found %d disagreements during benchmark", len(sum.Findings))
	}
}
