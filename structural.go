package vliwq

import (
	"fmt"
	"strconv"

	"vliwq/internal/ir"
)

// Structural (isomorphism-class) caching support: StructuralKey groups
// requests whose loops differ only in naming or statement numbering, and
// RemapResult rewrites a cached Result onto a differently-named spelling
// of the same loop. DESIGN.md §12 documents the layer end to end.

// StructuralKey returns the structural cache/routing key of the request:
// every pipeline knob spelled canonically plus the ir.Fingerprint of the
// parsed loop in place of the loop text. Two requests share a structural
// key exactly when their loops are isomorphic (same dependence structure up
// to operand renaming and statement renumbering) and every knob matches —
// the condition under which one compile can serve both, modulo the remap
// step. The grammar mirrors Canonical():
//
//	"sq1;" "m=" machine ";u=" bool ";f=" int ";s=" shape
//	";mv=" bool ";cl=" int ";sv=" bool ";e=" effort ";fp=" hex-digest
//
// A request that fails Normalize or whose loop fails to parse cannot be
// fingerprinted; it falls back to Canonical(), so invalid requests keep
// exact-key semantics everywhere a structural key is used (gateway routing,
// the service's structural cache lookup). Prepared.StructuralKey is the
// implementation.
func (r Request) StructuralKey() string { return Prepare(r).StructuralKey() }

// RemapResult rewrites a compiled Result onto `to`, a loop that must be
// skeleton-equal to res.Input: identical in every field the pipeline reads
// (kinds, dependences, trip, lineage, statement order) and free to differ
// only in the loop name and operation names. The returned Result is
// byte-identical to what compiling `to` under the same Options would
// produce — Report, KernelSchedule and every artifact render with the
// caller's names — without running any pipeline stage. The structural
// cache layer in internal/service is the intended caller.
//
// Only naming is rewritten: loop bodies are cloned and renamed by lineage
// (an unroll replica of original op i takes its new name from to.Ops[i]),
// the Schedule is shallow-copied with its Loop swapped, and everything
// name-free — Time/Cluster vectors, the Allocation, stage timings, the
// headline metrics — is shared with res. Callers already treat those as
// read-only (Result documents its artifacts as shared pointers).
//
// The skeleton precondition is checked, not assumed: loops that are merely
// isomorphic (equal ir.Fingerprint, permuted statements) are rejected,
// because the scheduler's ID-based tie-breaking may legitimately schedule
// a renumbered body differently, and "byte-identical to a fresh compile"
// is the invariant this function exists to preserve. Callers that want to
// serve a permuted spelling first renumber it into the cached spelling's
// statement order with ir.AlignLike, which restores skeleton equality and
// leaves only names for this function to rewrite.
func RemapResult(res *Result, to *Loop) (*Result, error) {
	if res == nil || res.Input == nil {
		return nil, fmt.Errorf("vliwq: remap of nil result")
	}
	if to == nil {
		return nil, fmt.Errorf("vliwq: remap onto nil loop")
	}
	from := res.Input
	if ir.Skeleton(from) != ir.Skeleton(to) {
		return nil, fmt.Errorf("vliwq: remap skeleton mismatch: loops %q and %q are not name-only isomorphic", from.Name, to.Name)
	}
	if sameNames(from, to) {
		return res, nil
	}

	// The result can reference up to four loop pointers (Input, AfterUnroll,
	// AfterCopies, Sched.Loop), some aliased (AfterUnroll == Input when no
	// unrolling applied). Remap each distinct pointer once and preserve the
	// aliasing structure.
	clones := map[*Loop]*Loop{nil: nil}
	remap := func(l *Loop) *Loop {
		if c, ok := clones[l]; ok {
			return c
		}
		c := remapLoop(l, from, to, res.Unrolled)
		clones[l] = c
		return c
	}

	out := *res
	out.Input = remap(res.Input)
	out.AfterUnroll = remap(res.AfterUnroll)
	out.AfterCopies = remap(res.AfterCopies)
	if res.Sched != nil {
		s := *res.Sched
		s.Loop = remap(res.Sched.Loop)
		out.Sched = &s
	}
	return &out, nil
}

// sameNames reports whether the two loops already agree on every name, in
// which case a remap is the identity.
func sameNames(a, b *Loop) bool {
	if a.Name != b.Name || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i, op := range a.Ops {
		if op.Name != b.Ops[i].Name {
			return false
		}
	}
	return true
}

// remapLoop clones l and renames it from `from`'s naming onto `to`'s,
// following the naming rules of the pipeline stages:
//
//   - synthetic ops (copies, moves) are unnamed and stay unnamed — names
//     are inert to every stage, so a clone's synthetic ops are positioned
//     identically regardless of the input spelling;
//   - an unroll replica (named, Orig >= 0) is named "<base>.<phase>" after
//     its original, so it takes to.Ops[Orig].Name as its new base;
//   - any other named op is an original and takes to.Ops[ID].Name;
//   - the loop name follows the unroll pass's "<name>.x<factor>" scheme.
func remapLoop(l, from, to *Loop, factor int) *Loop {
	c := l.Clone()
	for _, op := range c.Ops {
		if op.Name == "" {
			continue
		}
		if op.Orig >= 0 {
			base := to.Ops[op.Orig].Name
			if base == "" {
				op.Name = ""
			} else {
				op.Name = base + "." + strconv.Itoa(op.Phase)
			}
			continue
		}
		op.Name = to.Ops[op.ID].Name
	}
	switch c.Name {
	case from.Name:
		c.Name = to.Name
	case from.Name + ".x" + strconv.Itoa(factor):
		c.Name = to.Name + ".x" + strconv.Itoa(factor)
	}
	return c
}
