package term

import (
	"strings"
	"testing"
)

func TestDeref(t *testing.T) {
	v1 := NewVar("X")
	v2 := NewVar("Y")
	var tr Trail
	tr.Bind(v1, v2)
	tr.Bind(v2, Atom("a"))
	if got := Deref(v1); got != Atom("a") {
		t.Fatalf("Deref chain = %v, want a", got)
	}
}

func TestUnifyBasics(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{Atom("a"), Atom("a"), true},
		{Atom("a"), Atom("b"), false},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Atom("a"), Int(1), false},
		{Comp("f", Atom("a")), Comp("f", Atom("a")), true},
		{Comp("f", Atom("a")), Comp("f", Atom("b")), false},
		{Comp("f", Atom("a")), Comp("g", Atom("a")), false},
		{Comp("f", Atom("a")), Comp("f", Atom("a"), Atom("b")), false},
	}
	for _, c := range cases {
		var tr Trail
		if got := UnifyAtomic(c.a, c.b, &tr); got != c.want {
			t.Errorf("Unify(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnifyBindsVariables(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	var tr Trail
	lhs := Comp("f", x, x)
	rhs := Comp("f", y, Atom("a"))
	if !UnifyAtomic(lhs, rhs, &tr) {
		t.Fatal("unification failed")
	}
	if Deref(x) != Atom("a") || Deref(y) != Atom("a") {
		t.Fatalf("X=%v Y=%v, want both a", Deref(x), Deref(y))
	}
}

func TestUnifyFailureRollsBack(t *testing.T) {
	x := NewVar("X")
	var tr Trail
	lhs := Comp("f", x, x)
	rhs := Comp("f", Atom("a"), Atom("b"))
	if UnifyAtomic(lhs, rhs, &tr) {
		t.Fatal("unification should fail")
	}
	if x.Ref != nil {
		t.Fatal("X should be unbound after failed atomic unification")
	}
	if tr.Len() != 0 {
		t.Fatal("trail should be empty after rollback")
	}
}

func TestTrailUndo(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	var tr Trail
	m0 := tr.Mark()
	tr.Bind(x, Atom("a"))
	m1 := tr.Mark()
	tr.Bind(y, Atom("b"))
	tr.Undo(m1)
	if y.Ref != nil || x.Ref == nil {
		t.Fatal("partial undo wrong")
	}
	tr.Undo(m0)
	if x.Ref != nil {
		t.Fatal("full undo wrong")
	}
}

func TestOccursCheck(t *testing.T) {
	x := NewVar("X")
	var tr Trail
	if UnifyOC(x, Comp("f", x), &tr) {
		t.Fatal("occur-check should reject X = f(X)")
	}
	if x.Ref != nil {
		t.Fatal("failed occur-check unification must not bind")
	}
	if !UnifyOC(x, Comp("f", Atom("a")), &tr) {
		t.Fatal("ordinary unification should succeed under occur-check")
	}
}

func TestOccursDeep(t *testing.T) {
	x := NewVar("X")
	y := NewVar("Y")
	var tr Trail
	tr.Bind(y, Comp("g", x))
	if !Occurs(x, Comp("f", Atom("a"), y)) {
		t.Fatal("Occurs should look through bindings")
	}
}

func TestListHelpers(t *testing.T) {
	l := List(Atom("a"), Int(2), Atom("c"))
	if got := l.String(); got != "[a,2,c]" {
		t.Fatalf("List string = %q", got)
	}
	elems, ok := Slice(l)
	if !ok || len(elems) != 3 {
		t.Fatalf("Slice = %v, %v", elems, ok)
	}
	if Length(l) != 3 {
		t.Fatalf("Length = %d", Length(l))
	}
	v := NewVar("T")
	pl := ListWithTail(v, Atom("a"))
	if _, ok := Slice(pl); ok {
		t.Fatal("Slice should fail on partial list")
	}
	if Length(pl) != -1 {
		t.Fatal("Length should be -1 on partial list")
	}
	if got := pl.String(); !strings.HasPrefix(got, "[a|") {
		t.Fatalf("partial list prints as %q", got)
	}
}

func TestIndicator(t *testing.T) {
	if ind, ok := Indicator(Atom("foo")); !ok || ind != "foo/0" {
		t.Fatalf("Indicator(foo) = %q, %v", ind, ok)
	}
	if ind, ok := Indicator(Comp("bar", Int(1), Int(2))); !ok || ind != "bar/2" {
		t.Fatalf("Indicator(bar/2) = %q, %v", ind, ok)
	}
	if _, ok := Indicator(NewVar("X")); ok {
		t.Fatal("Indicator of var should fail")
	}
	if _, ok := Indicator(Int(3)); ok {
		t.Fatal("Indicator of int should fail")
	}
}

func TestVarsOrder(t *testing.T) {
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	tm := Comp("f", y, Comp("g", x, y), z)
	vs := Vars(tm)
	if len(vs) != 3 || vs[0] != y || vs[1] != x || vs[2] != z {
		t.Fatalf("Vars order wrong: %v", vs)
	}
}

func TestRenameSharing(t *testing.T) {
	x := NewVar("X")
	tm := Comp("f", x, x)
	r := Rename(tm, nil).(*Compound)
	rx0, ok0 := Deref(r.Args[0]).(*Var)
	rx1, ok1 := Deref(r.Args[1]).(*Var)
	if !ok0 || !ok1 || rx0 != rx1 {
		t.Fatal("renaming must preserve sharing")
	}
	if rx0 == x {
		t.Fatal("renaming must produce fresh variables")
	}
}

func TestResolveSnapshots(t *testing.T) {
	x := NewVar("X")
	tm := Comp("f", x)
	var tr Trail
	tr.Bind(x, Atom("a"))
	snap := Resolve(tm)
	tr.Undo(0)
	if snap.String() != "f(a)" {
		t.Fatalf("snapshot lost binding: %v", snap)
	}
}

func TestDepthSize(t *testing.T) {
	tm := Comp("f", Comp("g", Atom("a")), Atom("b"))
	if Depth(tm) != 2 {
		t.Fatalf("Depth = %d, want 2", Depth(tm))
	}
	if Size(tm) != 4 {
		t.Fatalf("Size = %d, want 4", Size(tm))
	}
	if Depth(Atom("a")) != 0 || Size(Atom("a")) != 1 {
		t.Fatal("atom depth/size wrong")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	v := NewVar("X")
	ts := []Term{Comp("f", Atom("a")), Atom("b"), Int(3), v, Atom("a"), Int(-1)}
	SortTerms(ts)
	// Var < Int < Atom < Compound
	want := []string{v.String(), "-1", "3", "a", "b", "f(a)"}
	for i, tm := range ts {
		if tm.String() != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v (all: %v)", i, tm, want[i], ts)
		}
	}
}

func TestIsGround(t *testing.T) {
	if !IsGround(Comp("f", Atom("a"), Int(1))) {
		t.Fatal("ground term misreported")
	}
	if IsGround(Comp("f", NewVar("X"))) {
		t.Fatal("non-ground term misreported")
	}
	x := NewVar("X")
	var tr Trail
	tr.Bind(x, Atom("a"))
	if !IsGround(Comp("f", x)) {
		t.Fatal("IsGround must follow bindings")
	}
}

func TestAtomQuoting(t *testing.T) {
	cases := map[string]string{
		"foo":         "foo",
		"fooBar":      "fooBar",
		"[]":          "[]",
		"Foo":         "'Foo'",
		"hello world": "'hello world'",
		"it's":        `'it\'s'`,
		"+":           "+",
		":-":          ":-",
		"":            "''",
		"a\nb":        `'a\nb'`,
	}
	for in, want := range cases {
		if got := Atom(in).String(); got != want {
			t.Errorf("Atom(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestSkeletonRoundTrip(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	tm := Comp("f", x, Comp("g", y, x), Int(3))
	idx := map[*Var]int{}
	skel := CompileSkeleton(tm, idx)
	if len(idx) != 2 {
		t.Fatalf("skeleton vars = %d, want 2", len(idx))
	}
	inst := InstantiateFrame(skel, make([]Term, len(idx)))
	if !Variant(tm, inst) {
		t.Fatalf("instantiation is not a variant: %v vs %v", tm, inst)
	}
	// shared variables stay shared
	c := inst.(*Compound)
	inner := Deref(c.Args[1]).(*Compound)
	if Deref(c.Args[0]) != Deref(inner.Args[1]) {
		t.Fatal("sharing lost through skeleton")
	}
	// two instantiations share nothing
	inst2 := InstantiateFrame(skel, make([]Term, len(idx)))
	if Deref(inst2.(*Compound).Args[0]) == Deref(c.Args[0]) {
		t.Fatal("instantiations must be independent")
	}
}

func TestSkeletonGroundSharing(t *testing.T) {
	// Ground subtrees are shared, not copied.
	g := Comp("g", Atom("a"), Int(1))
	tm := Comp("f", g, NewVar("X"))
	skel := CompileSkeleton(tm, map[*Var]int{})
	inst := InstantiateFrame(skel, []Term{NewVar("Y")})
	if inst.(*Compound).Args[0] != skel.(*Compound).Args[0] {
		t.Fatal("ground subtree should be shared with the skeleton")
	}
}
