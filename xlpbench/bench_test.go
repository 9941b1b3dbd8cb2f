package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func testConfig(t *testing.T, seed int64) config {
	t.Helper()
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: seed, refs: refs, tally: &tally{}, cals: &calLog{}, workDir: t.TempDir()}
}

func checkTally(t *testing.T, cfg config) {
	t.Helper()
	if cfg.tally.failed > 0 || cfg.tally.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", cfg.tally.failed, cfg.tally.attempted, cfg.tally.errs)
	}
}

// TestSensitivity injects a 2x slowdown into one groundness program (qsort
// analysed twice per sweep, timed as one operation). It requires
// qsort's own lower quartile, prop.analyze_ms.qsort, to move past the
// geomean_ms bound of BENCHMARK.json, and geomean_ms to move up. Sweeps
// of the plain and the injected benchmark alternate, so drift on the
// host affects both alike. Table space must not move: the injection
// repeats work, it does not change it.
//
// Doubling one of twelve programs moves the geometric mean by
// 2^(1/12) - 1 = 5.9%, less than the geomean_ms bound, which has to hold
// the run-to-run spread of the busier workloads; between two sets of
// paired sweeps the other eleven programs' lower quartiles still differ
// by a few percent, so the test asks of geomean_ms only the direction.
func TestSensitivity(t *testing.T) {
	bound := bounds(t)["geomean_ms"]
	cfg := testConfig(t, 7)
	plain := newCorpusBench(groundFamily, cfg)
	cfg.double = "qsort"
	slow := newCorpusBench(groundFamily, cfg)
	plain.sweep(nil)
	slow.sweep(nil)
	var a, b []sweepSample
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) || len(a) < 40; {
		a = append(a, plain.sweep(nil))
		b = append(b, slow.sweep(nil))
	}
	checkTally(t, cfg)
	base, inj := summarize(groundFamily, a), summarize(groundFamily, b)
	if g := inj.geomeanMs/base.geomeanMs - 1; g <= 0 {
		t.Errorf("geomean_ms moved by %.3f (%.3f -> %.3f ms), not up", g, base.geomeanMs, inj.geomeanMs)
	}
	if q := inj.perProgMs["qsort"]/base.perProgMs["qsort"] - 1; q <= bound {
		t.Errorf("prop.analyze_ms.qsort moved by %.3f, not past the geomean_ms bound %.3f", q, bound)
	}
	if inj.tableMB != base.tableMB {
		t.Errorf("table_mb moved from %v to %v", base.tableMB, inj.tableMB)
	}
	t.Logf("geomean_ms %.3f -> %.3f ms, qsort %.3f -> %.3f ms, bound %.3f",
		base.geomeanMs, inj.geomeanMs, base.perProgMs["qsort"], inj.perProgMs["qsort"], bound)
}

// selfTimeTolerance is how far the per-layer self times of a traced
// sweep may sum from the untraced sweep_ms: the traced sweeps are other
// sweeps than the untraced ones, and tracing adds its own cost.
const selfTimeTolerance = 0.2

// minPhaseShare is the share of the traced analysis time that the
// analyzers' Timeline phases must cover. What they miss would count
// toward no layer.
const minPhaseShare = 0.95

// TestDeterminism runs each corpus workload twice with one seed and
// requires identical table space, engine counters, and per-program
// answers and table nodes. It also requires the Timeline phases to
// cover at least minPhaseShare of the traced analysis time, and the
// layers' self times to sum to the untraced sweep_ms within
// selfTimeTolerance.
func TestDeterminism(t *testing.T) {
	for _, fam := range []*family{groundFamily, strictFamily} {
		t.Run(fam.workload, func(t *testing.T) {
			// At least five sweeps each way on strict-corpus: single
			// strictness sweeps differ by up to a third on a busy host.
			d, n := 3*time.Second, 3
			if fam == strictFamily {
				d, n = 0, 5
			}
			var runs [2]corpusLayers
			for i := range runs {
				cfg := testConfig(t, 11)
				runs[i] = traceCorpus(fam, cfg, newRecorder(), d, d, n, n)
				checkTally(t, cfg)
			}
			r0, r1 := runs[0].untraced, runs[1].untraced
			if r0.tableMB != r1.tableMB {
				t.Errorf("table_mb %v vs %v", r0.tableMB, r1.tableMB)
			}
			if r0.stats != r1.stats {
				t.Errorf("engine counters %+v vs %+v", r0.stats, r1.stats)
			}
			if !reflect.DeepEqual(r0.perProgCnt, r1.perProgCnt) {
				t.Errorf("per-program engine counters differ")
			}
			for _, cl := range runs {
				if cl.phaseShare < minPhaseShare {
					t.Errorf("Timeline phases cover %.1f%% of the traced analysis time, want at least %.0f%%", cl.phaseShare*100, minPhaseShare*100)
				}
				if got, want := cl.layerSum(fam), cl.untraced.sweepMs; math.Abs(got/want-1) > selfTimeTolerance {
					t.Errorf("layer self times sum to %.2f ms, sweep_ms %.2f ms (tolerance %.0f%%)", got, want, selfTimeTolerance*100)
				}
			}
		})
	}
}
