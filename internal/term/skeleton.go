package term

import "strconv"

// Ref is a placeholder for a variable inside a compiled clause skeleton.
// Skeletons never take part in unification themselves: a clause is
// resolved against its skeleton with MatchSkeleton, which fills a frame
// of Ref slots from the goal, and InstantiateFrame builds terms from the
// skeleton and that frame. Neither copies the clause.
type Ref int

func (Ref) isTerm() {}

func (r Ref) String() string { return "$ref" + strconv.Itoa(int(r)) }

// CompileSkeleton replaces each distinct unbound variable of t with a
// Ref numbered by first occurrence, extending idx (pass an empty map for
// a fresh clause; share it across the head and body so variables stay
// consistent). It returns the skeleton.
func CompileSkeleton(t Term, idx map[*Var]int) Term {
	switch t := Deref(t).(type) {
	case *Var:
		i, ok := idx[t]
		if !ok {
			i = len(idx)
			idx[t] = i
		}
		return Ref(i)
	case *Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = CompileSkeleton(a, idx)
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// MatchSkeleton unifies t with a fresh instance of the skeleton skel
// without building that instance: the skeleton is walked against t the
// way WAM head instructions walk their argument registers. frame holds
// one slot per Ref of the clause and must start all nil; a slot is set
// at its Ref's first occurrence.
//
//   - A first-occurrence Ref takes t's subterm directly: no fresh
//     variable, no binding.
//   - A repeated Ref unifies t's subterm with the slot.
//   - A skeleton compound against an unbound variable of t binds the
//     variable to InstantiateFrame of the compound.
//   - Atoms and integers compare, or bind an unbound variable of t.
//
// Bindings are trailed on tr; on failure the caller undoes them, as
// after a failed Unify. Matching allocates only for the compounds it
// instantiates, so a head that fails before one allocates nothing. On
// success the frame holds the clause's head variables, and
// InstantiateFrame builds the body from it.
func MatchSkeleton(t, skel Term, frame []Term, tr *Trail) bool {
	switch s := skel.(type) {
	case Ref:
		if frame[s] == nil {
			frame[s] = Deref(t)
			return true
		}
		return Unify(t, frame[s], tr)
	case *Compound:
		switch g := Deref(t).(type) {
		case *Compound:
			if g.Functor != s.Functor || len(g.Args) != len(s.Args) {
				return false
			}
			for i, a := range s.Args {
				if !MatchSkeleton(g.Args[i], a, frame, tr) {
					return false
				}
			}
			return true
		case *Var:
			tr.Bind(g, InstantiateFrame(s, frame))
			return true
		}
		return false
	default:
		switch g := Deref(t).(type) {
		case *Var:
			tr.Bind(g, skel)
			return true
		default:
			return g == skel
		}
	}
}

// InstantiateFrame builds the instance of the skeleton skel under frame:
// every Ref i becomes frame[i], and a slot still unset gets a fresh
// variable, stored back so later occurrences share it. Skeleton
// subterms without a Ref are shared, not copied, and no args slice is
// allocated for them.
func InstantiateFrame(skel Term, frame []Term) Term {
	switch s := skel.(type) {
	case Ref:
		v := frame[s]
		if v == nil {
			v = NewVar("_")
			frame[s] = v
		}
		return v
	case *Compound:
		var args []Term
		for i, a := range s.Args {
			na := InstantiateFrame(a, frame)
			if args == nil {
				if na == a {
					continue
				}
				args = make([]Term, len(s.Args))
				copy(args, s.Args[:i])
			}
			args[i] = na
		}
		if args == nil {
			return s
		}
		return &Compound{Functor: s.Functor, Args: args}
	default:
		return skel
	}
}

// Detach returns a copy of t that no later binding or undo can change:
// bindings are applied and every unbound variable is replaced by a fresh
// one, consistently across t. It reports whether the copy is ground.
// Subterms of t that contain no variable at all, bound or unbound, are
// shared with t instead of copied. Detach(t) is a variant of
// Rename(Resolve(t), nil), and its flag equals IsGround of it, in one
// pass and without a map for the common few-variable term.
func Detach(t Term) (Term, bool) {
	var d detacher
	out := d.detach(t)
	return out, d.n == 0
}

// detachLinear is the number of variables a detacher renames through
// its fixed arrays before it switches to a map.
const detachLinear = 16

type detacher struct {
	n        int // variables renamed
	from, to [detachLinear]*Var
	m        map[*Var]*Var // replaces from/to past detachLinear variables
}

func (d *detacher) detach(t Term) Term {
	switch t := Deref(t).(type) {
	case *Var:
		return d.rename(t)
	case *Compound:
		var args []Term
		for i, a := range t.Args {
			na := d.detach(a)
			if args == nil {
				if na == a {
					continue
				}
				args = make([]Term, len(t.Args))
				copy(args, t.Args[:i])
			}
			args[i] = na
		}
		if args == nil {
			return t
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

func (d *detacher) rename(v *Var) *Var {
	if d.m == nil {
		for i, old := range d.from[:d.n] {
			if old == v {
				return d.to[i]
			}
		}
		if d.n == detachLinear {
			d.m = make(map[*Var]*Var, 2*detachLinear)
			for i, old := range d.from {
				d.m[old] = d.to[i]
			}
		}
	} else if nv, ok := d.m[v]; ok {
		return nv
	}
	nv := NewVar(v.Name)
	if d.m != nil {
		d.m[v] = nv
	} else {
		d.from[d.n], d.to[d.n] = v, nv
	}
	d.n++
	return nv
}
