// Bench-regression gate for the engine's table representations and
// clause backends.
//
// BenchmarkSolveCorpus drives the whole benchmark corpus (Table 1
// groundness over the 12 logic programs, Table 3 strictness over the 10
// functional programs) through each configuration — trie tables with the
// interpreter, string-map tables with the interpreter, and trie tables
// with the closure-compiled clause backend; one op is one full corpus
// sweep. TestBenchRegressionGate re-runs the same workload under
// testing.Benchmark and compares it against the committed baseline in
// BENCH_engine.json, failing on a >15% regression in time or
// allocations, and holding the headline wins: trie tables must allocate
// at least 20% less than the string-map sweep, and the closure backend
// must beat the interpreted sweep on wall time.
//
// The gate is opt-in (it costs several benchmark seconds):
//
//	XLP_BENCH_CHECK=1 go test -run TestBenchRegressionGate .   # or: make bench-check
//	XLP_BENCH_WRITE=1 go test -run TestBenchRegressionGate .   # refresh the baseline
package xlp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// benchConfig is one gated engine configuration: a table representation,
// a clause backend and a parallelism bound. Names key the entries in
// BENCH_engine.json.
type benchConfig struct {
	name   string
	engine engine.Config
}

func benchConfigs() []benchConfig {
	return []benchConfig{
		{"trie", engine.Config{}},
		{"stringmap", engine.Config{Tables: engine.TablesStringMap}},
		{"closure", engine.Config{Mode: engine.ModeClosure}},
		// Corpus programs are mostly single-cone (one goal group), so
		// this entry is not expected to beat the trie sweep — it holds
		// the group planner's overhead inside the regression band on
		// workloads that cannot split. The batch gate below is where
		// parallelism must pay off.
		{"parallel", engine.Config{Limits: engine.Limits{MaxParallel: 4}}},
	}
}

// solveCorpus is the gate's workload: every corpus program analyzed on
// the tabled engine under the given configuration.
func solveCorpus(tb testing.TB, cfg benchConfig) {
	for _, p := range corpus.LogicPrograms() {
		if _, err := prop.Analyze(p.Source, prop.Options{Engine: cfg.engine}); err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
	}
	for _, p := range corpus.FuncPrograms() {
		if _, err := strict.Analyze(p.Source, strict.Options{Engine: cfg.engine}); err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func BenchmarkSolveCorpus(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveCorpus(b, cfg)
			}
		})
	}
}

// benchBaseline mirrors BENCH_engine.json.
type benchBaseline struct {
	Benchmark string                `json:"benchmark"`
	Date      string                `json:"date"`
	Workload  string                `json:"workload"`
	Results   map[string]benchEntry `json:"results"`
}

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

const benchBaselineFile = "BENCH_engine.json"

// benchTolerance is the regression band: measured/baseline above this
// ratio fails the gate. Allocation counts are near-deterministic; the
// same band on ns/op absorbs scheduler noise on a multi-second workload.
const benchTolerance = 1.15

// trieAllocsTarget is the acceptance bar on the representation itself:
// the trie sweep must allocate at most this fraction of the string-map
// sweep (a >=20% reduction).
const trieAllocsTarget = 0.80

// obsBaselineFile holds the observability-layer overhead baselines:
// the tracing-hook numbers at the top level (historical layout) and the
// justification-recorder numbers under "provenance".
const obsBaselineFile = "BENCH_obs.json"

// provBaseline mirrors the "provenance" section of BENCH_obs.json.
type provBaseline struct {
	Benchmark            string                `json:"benchmark"`
	Date                 string                `json:"date"`
	Workload             string                `json:"workload"`
	Results              map[string]benchEntry `json:"results"`
	EnabledVsDisabledPct float64               `json:"enabled_vs_disabled_pct"`
	Invariant            string                `json:"invariant"`
}

// TestProvenanceBenchGate holds the justification recorder to its
// acceptance bar: with provenance off, the press1 groundness analysis
// must stay within the regression band of both its own committed
// baseline and the pre-instrumentation seed measurement — i.e. the
// recorder's disabled path (one branch per hook site) costs nothing
// measurable. Opt-in alongside TestBenchRegressionGate:
//
//	XLP_BENCH_CHECK=1 go test -run TestProvenanceBenchGate .   # or: make bench-check
//	XLP_BENCH_WRITE=1 go test -run TestProvenanceBenchGate .   # refresh the section
func TestProvenanceBenchGate(t *testing.T) {
	write := os.Getenv("XLP_BENCH_WRITE") != ""
	if os.Getenv("XLP_BENCH_CHECK") == "" && !write {
		t.Skip("set XLP_BENCH_CHECK=1 (compare) or XLP_BENCH_WRITE=1 (rebaseline) to run")
	}
	p, err := corpus.Get("press1")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(provenance bool) testing.BenchmarkResult {
		var best testing.BenchmarkResult
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := prop.Analyze(p.Source, prop.Options{Provenance: provenance}); err != nil {
						b.Fatal(err)
					}
				}
			})
			if run == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}
	disabled, enabled := measure(false), measure(true)
	t.Logf("disabled: %d ns/op, %d allocs/op; enabled: %d ns/op, %d allocs/op (+%.1f%% time)",
		disabled.NsPerOp(), disabled.AllocsPerOp(), enabled.NsPerOp(), enabled.AllocsPerOp(),
		(float64(enabled.NsPerOp())/float64(disabled.NsPerOp())-1)*100)

	raw, err := os.ReadFile(obsBaselineFile)
	if err != nil {
		t.Fatalf("no committed %s: %v", obsBaselineFile, err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt %s: %v", obsBaselineFile, err)
	}

	// The seed bar: disabled-provenance time vs the pre-instrumentation
	// press1 measurement recorded when the tracing hooks landed.
	var seed struct {
		Press1NsPerOp float64 `json:"press1_ns_per_op"`
	}
	if err := json.Unmarshal(file["pre_instrumentation_baseline"], &seed); err != nil || seed.Press1NsPerOp <= 0 {
		t.Fatalf("%s: no pre-instrumentation press1 baseline: %v", obsBaselineFile, err)
	}
	if got := float64(disabled.NsPerOp()); got > seed.Press1NsPerOp*benchTolerance {
		t.Errorf("provenance-off run is %.1f%% over the pre-instrumentation seed (%.0f ns/op vs %.0f)",
			(got/seed.Press1NsPerOp-1)*100, got, seed.Press1NsPerOp)
	}

	if write {
		sect := provBaseline{
			Benchmark: "BenchmarkProvenanceOverhead",
			Date:      time.Now().Format("2006-01-02"),
			Workload:  "prop groundness analysis of corpus benchmark press1 with the justification recorder off (default single-branch hooks) vs on (full per-answer records)",
			Results: map[string]benchEntry{
				"disabled": {NsPerOp: float64(disabled.NsPerOp()), BytesPerOp: disabled.AllocedBytesPerOp(), AllocsPerOp: disabled.AllocsPerOp()},
				"enabled":  {NsPerOp: float64(enabled.NsPerOp()), BytesPerOp: enabled.AllocedBytesPerOp(), AllocsPerOp: enabled.AllocsPerOp()},
			},
			EnabledVsDisabledPct: math.Round((float64(enabled.NsPerOp())/float64(disabled.NsPerOp())-1)*1000) / 10,
			Invariant:            "provenance-off time stays within the regression band of the pre-instrumentation seed (the recorder is free unless asked for); difftest provenance_sound separately holds answers byte-identical off vs on",
		}
		enc, err := json.Marshal(sect)
		if err != nil {
			t.Fatal(err)
		}
		file["provenance"] = enc
		out, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(obsBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote provenance section of %s", obsBaselineFile)
		return
	}

	var base provBaseline
	if err := json.Unmarshal(file["provenance"], &base); err != nil {
		t.Fatalf("%s: no provenance section: %v (run with XLP_BENCH_WRITE=1 to create one)", obsBaselineFile, err)
	}
	for name, r := range map[string]testing.BenchmarkResult{"disabled": disabled, "enabled": enabled} {
		b, ok := base.Results[name]
		if !ok {
			t.Errorf("%s: no %q baseline entry", obsBaselineFile, name)
			continue
		}
		if got := float64(r.NsPerOp()); got > b.NsPerOp*benchTolerance {
			t.Errorf("%s: time regressed %.1f%% over baseline (%.0f ns/op vs %.0f)",
				name, (got/b.NsPerOp-1)*100, got, b.NsPerOp)
		}
		if got := float64(r.AllocsPerOp()); got > float64(b.AllocsPerOp)*benchTolerance {
			t.Errorf("%s: allocations regressed %.1f%% over baseline (%d allocs/op vs %d)",
				name, (got/float64(b.AllocsPerOp)-1)*100, r.AllocsPerOp(), b.AllocsPerOp)
		}
	}
}

// svcBaselineFile holds the service-layer throughput baselines
// (BenchmarkServiceThroughput's cold/warm entries plus the admission
// controller's shed path).
const svcBaselineFile = "BENCH_service.json"

// svcBenchTolerance is the time-regression band for the service gate.
// Its ops are microseconds, not the engine gate's seconds, so scheduler
// noise alone spans far more than benchTolerance; allocation counts are
// still near-deterministic and stay on the tight band, which is what
// catches real fat added to these paths (a new allocation on a 23-alloc
// warm hit is a 4% step, well inside 1.15).
const svcBenchTolerance = 1.5

// svcBenchEntry mirrors one entry of BENCH_service.json's results map.
type svcBenchEntry struct {
	Comment     string  `json:"comment,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	ReqPerS     float64 `json:"req_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// TestServiceBenchGate holds the service front door to its acceptance
// bars: the warm path (cache-hit Do) must stay within the regression
// band of its committed baseline, and the admission controller's shed
// path must both stay within its own band and cost less than serving a
// cache hit — load shedding that is slower than answering would not
// shed load. Opt-in alongside the other gates:
//
//	XLP_BENCH_CHECK=1 go test -run TestServiceBenchGate .   # or: make bench-check
//	XLP_BENCH_WRITE=1 go test -run TestServiceBenchGate .   # refresh warm + shed
func TestServiceBenchGate(t *testing.T) {
	write := os.Getenv("XLP_BENCH_WRITE") != ""
	if os.Getenv("XLP_BENCH_CHECK") == "" && !write {
		t.Skip("set XLP_BENCH_CHECK=1 (compare) or XLP_BENCH_WRITE=1 (rebaseline) to run")
	}
	p, err := corpus.Get("qsort")
	if err != nil {
		t.Fatal(err)
	}
	req := &service.Request{Kind: service.KindGroundness, Source: p.Source}
	ctx := context.Background()

	bestOf3 := func(bench func(b *testing.B)) testing.BenchmarkResult {
		var best testing.BenchmarkResult
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(bench)
			if run == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}
	warm := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
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
	})
	shed := bestOf3(func(b *testing.B) {
		b.ReportAllocs()
		s := service.New(service.Config{QueueSize: 1024, RateLimit: 1e-9, RateBurst: 1})
		defer s.Close()
		for {
			if ok, _ := s.Admit("bench"); !ok {
				break
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := s.Admit("bench"); ok {
				b.Fatal("bucket refilled mid-benchmark")
			}
		}
	})
	t.Logf("warm: %d ns/op, %d allocs/op; shed: %d ns/op, %d allocs/op",
		warm.NsPerOp(), warm.AllocsPerOp(), shed.NsPerOp(), shed.AllocsPerOp())

	// The machine-independent bar: rejecting a request must be cheaper
	// than serving it from the cache.
	if shed.NsPerOp() >= warm.NsPerOp() {
		t.Errorf("shed path is not cheaper than a cache hit: shed %d ns/op vs warm %d ns/op",
			shed.NsPerOp(), warm.NsPerOp())
	}

	raw, err := os.ReadFile(svcBaselineFile)
	if err != nil {
		t.Fatalf("no committed %s: %v", svcBaselineFile, err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt %s: %v", svcBaselineFile, err)
	}
	results := map[string]json.RawMessage{}
	if err := json.Unmarshal(file["results"], &results); err != nil {
		t.Fatalf("%s: corrupt results section: %v", svcBaselineFile, err)
	}

	if write {
		put := func(name, comment string, r testing.BenchmarkResult) {
			enc, err := json.Marshal(svcBenchEntry{
				Comment:     comment,
				NsPerOp:     float64(r.NsPerOp()),
				ReqPerS:     math.Round(1e9 / float64(r.NsPerOp())),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
			if err != nil {
				t.Fatal(err)
			}
			results[name] = enc
		}
		put("warm", "identical request repeated against a primed LRU cache", warm)
		put("shed", "admission fast-fail: token bucket empty, request rejected before touching the queue", shed)
		enc, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		file["results"] = enc
		// Keep the derived fields consistent with the refreshed warm entry.
		var cold svcBenchEntry
		if err := json.Unmarshal(results["cold"], &cold); err == nil && cold.NsPerOp > 0 {
			speedup, err := json.Marshal(math.Round(cold.NsPerOp / float64(warm.NsPerOp())))
			if err != nil {
				t.Fatal(err)
			}
			file["warm_over_cold_speedup"] = speedup
		}
		date, err := json.Marshal(time.Now().Format("2006-01-02"))
		if err != nil {
			t.Fatal(err)
		}
		file["date"] = date
		inv, err := json.Marshal("shed ns/op < warm ns/op: rejecting a request must cost less than serving a cache hit (TestServiceBenchGate)")
		if err != nil {
			t.Fatal(err)
		}
		file["shed_invariant"] = inv
		out, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(svcBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote warm and shed entries of %s", svcBaselineFile)
		return
	}

	for name, r := range map[string]testing.BenchmarkResult{"warm": warm, "shed": shed} {
		var base svcBenchEntry
		if err := json.Unmarshal(results[name], &base); err != nil || base.NsPerOp <= 0 {
			t.Errorf("%s: no %q baseline entry: %v (run with XLP_BENCH_WRITE=1 to create one)",
				svcBaselineFile, name, err)
			continue
		}
		if got := float64(r.NsPerOp()); got > base.NsPerOp*svcBenchTolerance {
			t.Errorf("%s: time regressed %.1f%% over baseline (%.0f ns/op vs %.0f)",
				name, (got/base.NsPerOp-1)*100, got, base.NsPerOp)
		}
		if got := float64(r.AllocsPerOp()); got > float64(base.AllocsPerOp)*benchTolerance {
			t.Errorf("%s: allocations regressed %.1f%% over baseline (%d allocs/op vs %d)",
				name, (got/float64(base.AllocsPerOp)-1)*100, r.AllocsPerOp(), base.AllocsPerOp)
		}
	}
}

// batchCorpusBody marshals the full benchmark corpus as one /v1/batch
// request: groundness over the Table 1 logic programs, strictness over
// the Table 3 functional ones. Every item has a distinct source, so no
// two items dedup or share a cache entry within one batch.
func batchCorpusBody(tb testing.TB) ([]byte, int) {
	tb.Helper()
	type item struct {
		Kind   service.Kind `json:"kind"`
		Source string       `json:"source"`
	}
	var items []item
	for _, p := range corpus.LogicPrograms() {
		items = append(items, item{service.KindGroundness, p.Source})
	}
	for _, p := range corpus.FuncPrograms() {
		items = append(items, item{service.KindStrictness, p.Source})
	}
	body, err := json.Marshal(struct {
		Items []item `json:"items"`
	}{items})
	if err != nil {
		tb.Fatal(err)
	}
	return body, len(items)
}

// runBatchCorpus posts the whole corpus as one batch against a fresh
// service (a fresh cache — every item is a real analysis) with the
// given worker count, and fails on any item error.
func runBatchCorpus(tb testing.TB, workers int, body []byte, items int) {
	s := service.New(service.Config{Workers: workers, QueueSize: 1024})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		OK     int `json:"ok"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		tb.Fatal(err)
	}
	if out.Failed != 0 || out.OK != items {
		tb.Fatalf("batch: %d ok, %d failed (want %d ok)", out.OK, out.Failed, items)
	}
}

// BenchmarkBatchScaling measures the /v1/batch path on the full corpus
// sweep at one worker vs all of them; one op is one whole batch.
func BenchmarkBatchScaling(b *testing.B) {
	body, items := batchCorpusBody(b)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBatchCorpus(b, w, body, items)
			}
		})
	}
}

// TestBatchScalingGate holds the batch path to its acceptance bar: the
// corpus batch at GOMAXPROCS workers must complete faster than the same
// batch on one worker (batch items genuinely run concurrently), and
// both runs must stay within the regression band of their committed
// BENCH_service.json entries. Opt-in alongside the other gates:
//
//	XLP_BENCH_CHECK=1 go test -run TestBatchScalingGate .   # or: make bench-check
//	XLP_BENCH_WRITE=1 go test -run TestBatchScalingGate .   # refresh batch entries
func TestBatchScalingGate(t *testing.T) {
	write := os.Getenv("XLP_BENCH_WRITE") != ""
	if os.Getenv("XLP_BENCH_CHECK") == "" && !write {
		t.Skip("set XLP_BENCH_CHECK=1 (compare) or XLP_BENCH_WRITE=1 (rebaseline) to run")
	}
	body, items := batchCorpusBody(t)
	bestOf3 := func(workers int) testing.BenchmarkResult {
		var best testing.BenchmarkResult
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runBatchCorpus(b, workers, body, items)
				}
			})
			if run == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}
	maxprocs := runtime.GOMAXPROCS(0)
	seq, par := bestOf3(1), bestOf3(maxprocs)
	t.Logf("batch of %d: 1 worker %d ns/op; %d workers %d ns/op (%.2fx)",
		items, seq.NsPerOp(), maxprocs, par.NsPerOp(),
		float64(seq.NsPerOp())/float64(par.NsPerOp()))

	// The machine-independent bar, meaningful only with real cores.
	if maxprocs > 1 && par.NsPerOp() >= seq.NsPerOp() {
		t.Errorf("batch at %d workers is not faster than sequential: %d ns/op vs %d ns/op",
			maxprocs, par.NsPerOp(), seq.NsPerOp())
	}

	raw, err := os.ReadFile(svcBaselineFile)
	if err != nil {
		t.Fatalf("no committed %s: %v", svcBaselineFile, err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt %s: %v", svcBaselineFile, err)
	}
	results := map[string]json.RawMessage{}
	if err := json.Unmarshal(file["results"], &results); err != nil {
		t.Fatalf("%s: corrupt results section: %v", svcBaselineFile, err)
	}

	if write {
		put := func(name, comment string, r testing.BenchmarkResult) {
			enc, err := json.Marshal(svcBenchEntry{
				Comment:     comment,
				NsPerOp:     float64(r.NsPerOp()),
				ReqPerS:     math.Round(float64(items) * 1e9 / float64(r.NsPerOp())),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
			if err != nil {
				t.Fatal(err)
			}
			results[name] = enc
		}
		put("batch_seq", "full corpus as one /v1/batch on a single worker (req_per_s counts items)", seq)
		put("batch_par", "full corpus as one /v1/batch at GOMAXPROCS workers (req_per_s counts items)", par)
		enc, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		file["results"] = enc
		speedup, err := json.Marshal(math.Round(float64(seq.NsPerOp())/float64(par.NsPerOp())*100) / 100)
		if err != nil {
			t.Fatal(err)
		}
		file["batch_parallel_speedup"] = speedup
		out, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(svcBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote batch_seq and batch_par entries of %s", svcBaselineFile)
		return
	}

	for name, r := range map[string]testing.BenchmarkResult{"batch_seq": seq, "batch_par": par} {
		var base svcBenchEntry
		if err := json.Unmarshal(results[name], &base); err != nil || base.NsPerOp <= 0 {
			t.Errorf("%s: no %q baseline entry: %v (run with XLP_BENCH_WRITE=1 to create one)",
				svcBaselineFile, name, err)
			continue
		}
		if got := float64(r.NsPerOp()); got > base.NsPerOp*svcBenchTolerance {
			t.Errorf("%s: time regressed %.1f%% over baseline (%.0f ns/op vs %.0f)",
				name, (got/base.NsPerOp-1)*100, got, base.NsPerOp)
		}
		if got := float64(r.AllocsPerOp()); got > float64(base.AllocsPerOp)*benchTolerance {
			t.Errorf("%s: allocations regressed %.1f%% over baseline (%d allocs/op vs %d)",
				name, (got/float64(base.AllocsPerOp)-1)*100, r.AllocsPerOp(), base.AllocsPerOp)
		}
	}
}

func TestBenchRegressionGate(t *testing.T) {
	write := os.Getenv("XLP_BENCH_WRITE") != ""
	if os.Getenv("XLP_BENCH_CHECK") == "" && !write {
		t.Skip("set XLP_BENCH_CHECK=1 (compare) or XLP_BENCH_WRITE=1 (rebaseline) to run")
	}

	// Best of three runs per configuration: minimum ns/op is the
	// standard noise-robust statistic, and allocation counts are
	// near-deterministic anyway.
	measured := map[string]testing.BenchmarkResult{}
	for _, cfg := range benchConfigs() {
		cfg := cfg
		var best testing.BenchmarkResult
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solveCorpus(b, cfg)
				}
			})
			if run == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		measured[cfg.name] = best
	}

	trie, smap := measured["trie"], measured["stringmap"]
	if ratio := float64(trie.AllocsPerOp()) / float64(smap.AllocsPerOp()); ratio > trieAllocsTarget {
		t.Errorf("trie tables allocate %.0f%% of the string-map sweep, want <= %.0f%% (trie %d, stringmap %d allocs/op)",
			ratio*100, trieAllocsTarget*100, trie.AllocsPerOp(), smap.AllocsPerOp())
	}

	// The closure backend's acceptance bar: compiling clauses to Go
	// closures (including compile time, paid once per machine) must beat
	// interpreting them over the same trie-table sweep.
	closure := measured["closure"]
	if closure.NsPerOp() >= trie.NsPerOp() {
		t.Errorf("closure backend is not faster than the interpreter: closure %d ns/op vs interpreted %d ns/op",
			closure.NsPerOp(), trie.NsPerOp())
	} else {
		t.Logf("closure backend: %.1f%% faster than the interpreter (%d vs %d ns/op)",
			(1-float64(closure.NsPerOp())/float64(trie.NsPerOp()))*100, closure.NsPerOp(), trie.NsPerOp())
	}

	if write {
		base := benchBaseline{
			Benchmark: "BenchmarkSolveCorpus",
			Date:      time.Now().Format("2006-01-02"),
			Workload:  "one op = full corpus sweep: prop groundness over the 12 logic programs + strict strictness over the 10 functional programs, per engine configuration (tables x clause backend)",
			Results:   map[string]benchEntry{},
		}
		for name, r := range measured {
			base.Results[name] = benchEntry{
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", benchBaselineFile)
		return
	}

	raw, err := os.ReadFile(benchBaselineFile)
	if err != nil {
		t.Fatalf("no committed baseline: %v (run with XLP_BENCH_WRITE=1 to create one)", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("corrupt %s: %v", benchBaselineFile, err)
	}
	for _, cfg := range benchConfigs() {
		name := cfg.name
		b, ok := base.Results[name]
		if !ok {
			t.Errorf("%s: no baseline entry in %s", name, benchBaselineFile)
			continue
		}
		r := measured[name]
		t.Logf("%s: %d ns/op (baseline %.0f), %d allocs/op (baseline %d), N=%d",
			name, r.NsPerOp(), b.NsPerOp, r.AllocsPerOp(), b.AllocsPerOp, r.N)
		if got := float64(r.NsPerOp()); got > b.NsPerOp*benchTolerance {
			t.Errorf("%s: time regressed %.1f%% over baseline (%.0f ns/op vs %.0f)",
				name, (got/b.NsPerOp-1)*100, got, b.NsPerOp)
		}
		if got := float64(r.AllocsPerOp()); got > float64(b.AllocsPerOp)*benchTolerance {
			t.Errorf("%s: allocations regressed %.1f%% over baseline (%d allocs/op vs %d)",
				name, (got/float64(b.AllocsPerOp)-1)*100, r.AllocsPerOp(), b.AllocsPerOp)
		}
	}
}
