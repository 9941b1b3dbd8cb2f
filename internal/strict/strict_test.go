package strict

import (
	"strings"
	"testing"

	"xlp/internal/engine"
	"xlp/internal/fl"
	"xlp/internal/obs"
)

const apSrc = `
	ap(nil, Ys) = Ys.
	ap(cons(X, Xs), Ys) = cons(X, ap(Xs, Ys)).
`

// Figure 4 golden test: the paper's worked example. sp_ap(e, X, Y) has
// the single solution X=e, Y=e ("ap is ee-strict in both arguments");
// sp_ap(d, X, Y) has solutions {e,d} and {d,n} ("ap is d-strict in the
// first argument, but not in the second").
func TestFigure4Append(t *testing.T) {
	a, err := Analyze(apSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Results["ap/2"]
	if r == nil {
		t.Fatal("no result for ap/2")
	}
	if r.UnderE[0] != E || r.UnderE[1] != E {
		t.Fatalf("under e-demand: %v, want (e,e)", r.UnderE)
	}
	if r.UnderD[0] != D {
		t.Fatalf("under d-demand arg1 = %v, want d", r.UnderD[0])
	}
	if r.UnderD[1] != N {
		t.Fatalf("under d-demand arg2 = %v, want n", r.UnderD[1])
	}
	if !r.Strict(0) || r.Strict(1) {
		t.Fatalf("strictness flags wrong: %v", r)
	}
}

func TestPrimopsAreStrict(t *testing.T) {
	a, err := Analyze(`
		add(X, Y) = X + Y.
		first(X, Y) = X.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	add := a.Results["add/2"]
	if add.UnderD[0] != E || add.UnderD[1] != E {
		t.Fatalf("add: %v", add)
	}
	first := a.Results["first/2"]
	if first.UnderD[0] != D && first.UnderD[0] != E {
		t.Fatalf("first is strict in arg 1: %v", first)
	}
	if first.UnderD[1] != N {
		t.Fatalf("first must not be strict in arg 2: %v", first)
	}
	// Under e-demand the first argument is fully demanded.
	if first.UnderE[0] != E {
		t.Fatalf("first under e: %v", first.UnderE)
	}
}

func TestConditionalStrictness(t *testing.T) {
	a, err := Analyze(`
		maxi(X, Y) = if(X < Y, Y, X).
		pick(B, X, Y) = if(B < 1, X, Y).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// maxi needs both args in every path (each is compared, one returned).
	maxi := a.Results["maxi/2"]
	if maxi.UnderD[0] < D || maxi.UnderD[1] < D {
		t.Fatalf("maxi should be strict in both args: %v", maxi)
	}
	// pick needs B always, but X and Y only on one path each.
	pick := a.Results["pick/3"]
	if pick.UnderD[0] < D {
		t.Fatalf("pick strict in condition: %v", pick)
	}
	if pick.UnderD[1] != N || pick.UnderD[2] != N {
		t.Fatalf("pick must not be strict in branch args: %v", pick)
	}
}

func TestNonStrictConstant(t *testing.T) {
	a, err := Analyze(`
		konst(X) = 42.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := a.Results["konst/1"]
	if k.UnderD[0] != N || k.UnderE[0] != N {
		t.Fatalf("konst demands nothing of its argument: %v", k)
	}
}

func TestHeadOnlyDemand(t *testing.T) {
	// hd demands only the spine cell of its argument under d, the whole
	// head under e.
	a, err := Analyze(`
		hd(cons(X, Xs)) = X.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hd := a.Results["hd/1"]
	if hd.UnderD[0] != D {
		t.Fatalf("hd under d: %v", hd.UnderD)
	}
	// Under e-demand the head must be fully evaluated but the tail is
	// untouched, so the argument demand stays d (not e).
	if hd.UnderE[0] != D {
		t.Fatalf("hd under e: %v", hd.UnderE)
	}
}

func TestLengthIgnoresElements(t *testing.T) {
	a, err := Analyze(`
		len(nil) = 0.
		len(cons(X, Xs)) = 1 + len(Xs).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln := a.Results["len/1"]
	// len traverses the spine fully but never the elements: demand d.
	if ln.UnderD[0] != D || ln.UnderE[0] != D {
		t.Fatalf("len demands = %v / %v, want d / d", ln.UnderD, ln.UnderE)
	}
}

func TestMutualRecursion(t *testing.T) {
	a, err := Analyze(`
		evenlen(nil) = tt.
		evenlen(cons(X, Xs)) = oddlen(Xs).
		oddlen(nil) = ff.
		oddlen(cons(X, Xs)) = evenlen(Xs).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Results["evenlen/1"].UnderD[0] != D {
		t.Fatalf("evenlen: %v", a.Results["evenlen/1"])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`f(X).`,                  // not an equation
		`f(g(X)) = X. g(Y) = Y.`, // function in pattern
		`3 = 4.`,                 // non-callable lhs
	}
	for _, src := range bad {
		if _, err := Analyze(src, Options{}); err == nil {
			t.Errorf("Analyze(%q) should fail", src)
		}
	}
}

func TestTransformShapeMatchesFigure4(t *testing.T) {
	prog, err := fl.Parse(apSrc)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	var spClauses []string
	for _, c := range tf.Clauses {
		s := c.String()
		if strings.Contains(s, "sp_ap_2") {
			spClauses = append(spClauses, s)
		}
	}
	// Two equations plus the n-demand clause.
	if len(spClauses) != 3 {
		t.Fatalf("sp_ap clauses = %d: %v", len(spClauses), spClauses)
	}
	// The second equation's clause must reference the constructor
	// relation and the recursive sp call, with pm matching the pattern.
	if !strings.Contains(spClauses[1], "sp_cons_2") ||
		!strings.Contains(spClauses[1], "pm_cons_2") {
		t.Fatalf("clause shape: %s", spClauses[1])
	}
}

func TestThroughputMetric(t *testing.T) {
	a, err := Analyze(apSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.LinesPerSecond() <= 0 {
		t.Fatal("throughput should be positive")
	}
	if a.TableBytes <= 0 {
		t.Fatal("table space should be positive")
	}
}

// TestEngineMaxParallelReachesSolver: a caller's
// Engine.Limits.MaxParallel must reach the machine, so independent sp
// goals are scheduled as parallel goal groups.
func TestEngineMaxParallelReachesSolver(t *testing.T) {
	tr := obs.NewTrace(0)
	src := "id(X) = X.\nfst(X, Y) = X.\n"
	_, err := Analyze(src, Options{Engine: engine.Config{Limits: engine.Limits{MaxParallel: 4}}, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if parallelGroups(tr) == 0 {
		t.Fatal("no parallel_group event: Engine.Limits.MaxParallel did not reach the engine")
	}
}

// parallelGroups counts the SolveAll goal groups a trace recorded.
func parallelGroups(tr *obs.Trace) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvParallelGroup {
			n++
		}
	}
	return n
}
