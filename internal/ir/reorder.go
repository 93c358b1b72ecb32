package ir

import (
	"cmp"
	"slices"
)

// Statement reordering: AlignLike maps one spelling of a loop onto the
// statement order of another, isomorphic spelling. The serving stack uses
// it as the canonical pre-ordering in front of the structural cache — the
// first spelling of an isomorphism class to be compiled fixes the class's
// canonical statement order, and every later permutation of it is aligned
// onto that order so the cached schedule can be served through the same
// rename-only remap that renamed spellings use (see DESIGN.md §12).

// AlignLike returns a copy of l whose statements are renumbered into
// target's statement order, or ok=false when no alignment can be
// established. On success the returned loop satisfies
// Skeleton(aligned) == Skeleton(target) by construction while keeping l's
// loop and operation names: position π(i) holds l's op i, and the
// dependence list is target's verbatim. The alignment is found by running
// the same WL color refinement that Fingerprint uses on both loops and
// pairing equal-colored ops in statement order; every dependence of the
// mapped l must then reproduce target's dependence list exactly (same
// endpoints, distance, kind and operand slot), which makes the pairing a
// genuine isomorphism — operand order, the one place where statement
// order is semantic, is preserved edge by edge.
//
// Raw spellings only: loops carrying unroll lineage (any op with
// Orig >= 0) are refused, as are pairs that differ in op or dep counts,
// trip count or unroll factor. Failure is always safe — callers fall back
// to a fresh compile.
func AlignLike(l, target *Loop) (aligned *Loop, ok bool) {
	n := len(l.Ops)
	if n != len(target.Ops) || len(l.Deps) != len(target.Deps) {
		return nil, false
	}
	if l.TripCount() != target.TripCount() || l.Unroll != target.Unroll {
		return nil, false
	}
	for _, op := range l.Ops {
		if op.Orig >= 0 {
			return nil, false
		}
	}
	for _, op := range target.Ops {
		if op.Orig >= 0 {
			return nil, false
		}
	}

	colorsL, slotL := wlRefine(l)
	colorsT, slotT := wlRefine(target)

	// Pair equal-colored ops in statement order: l's k-th op of color c
	// maps to target's k-th op of color c. Sorting both sides by (color,
	// statement index) lines those pairs up position by position, and the
	// pairing exists exactly when the two color multisets are equal.
	// Residually tied ops (same final color) are structurally
	// interchangeable whenever the dependence check below passes, so
	// statement order is a valid tie-break.
	orderL := make([]colorID, 2*n)
	orderL, orderT := orderL[:n], orderL[n:]
	for i := range orderL {
		orderL[i] = colorID{colorsL[i], int32(i)}
		orderT[i] = colorID{colorsT[i], int32(i)}
	}
	slices.SortFunc(orderL, compareColorID)
	slices.SortFunc(orderT, compareColorID)
	pi := make([]int, n) // pi[i] = target position of l's op i
	for k, o := range orderL {
		t := orderT[k]
		if o.c != t.c {
			return nil, false
		}
		i, j := int(o.id), int(t.id)
		if l.Ops[i].Kind != target.Ops[j].Kind || l.Ops[i].Phase != target.Ops[j].Phase {
			return nil, false
		}
		pi[i] = j
	}

	// The mapped dependence list must reproduce target's as a set. Keys
	// are unique within target — (to, kind, slot) already identifies one
	// dep — so with equal counts the sorted key lists are equal exactly
	// when the sets are.
	keys := make([]depKey, 2*len(l.Deps))
	mapped, want := keys[:len(l.Deps)], keys[len(l.Deps):]
	for i, d := range l.Deps {
		mapped[i] = depKey{pi[d.From], pi[d.To], d.Dist, d.Kind, slotL[i]}
	}
	for j, d := range target.Deps {
		want[j] = depKey{d.From, d.To, d.Dist, d.Kind, slotT[j]}
	}
	slices.SortFunc(mapped, compareDepKey)
	slices.SortFunc(want, compareDepKey)
	if !slices.Equal(mapped, want) {
		return nil, false
	}

	aligned = &Loop{
		Name:   l.Name,
		Trip:   l.Trip,
		Unroll: l.Unroll,
		Ops:    make([]*Op, n),
		Deps:   append([]Dep(nil), target.Deps...),
	}
	ops := make([]Op, n)
	for i, op := range l.Ops {
		cp := &ops[pi[i]]
		*cp = *op
		cp.ID = pi[i]
		aligned.Ops[pi[i]] = cp
	}
	return aligned, true
}

// depKey is a dependence with its operand slot, endpoints already mapped
// into the target's numbering.
type depKey struct {
	from, to int
	dist     int
	kind     DepKind
	slot     int
}

func compareDepKey(a, b depKey) int {
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	if c := cmp.Compare(a.to, b.to); c != 0 {
		return c
	}
	if c := cmp.Compare(a.dist, b.dist); c != 0 {
		return c
	}
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	return cmp.Compare(a.slot, b.slot)
}
