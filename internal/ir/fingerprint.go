package ir

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// Structural fingerprinting: a deterministic canonical-labeling pass over
// the dependence graph, so that two loops that differ only in operand
// naming — or, more aggressively, in statement numbering — hash to the
// same isomorphism-class key. The serving stack keys its second-level
// (structural) compile cache on Fingerprint and uses Skeleton equality as
// the remap precondition: equal skeletons mean the pipeline treats the two
// loops identically in every way except the names it prints, which is
// exactly the property that makes a cached schedule safely renameable
// (see DESIGN.md §12).
//
// Every request the service or the gateway sees runs these kernels, so they
// render with strconv appends into one buffer and sort with slices instead
// of fmt, sort.Slice and per-round maps. Their output is byte-identical to
// the fmt-based versions the package tests keep as oracles.

// Skeleton returns the name-free structural encoding of the loop in given
// statement order: operation kinds (with unroll lineage), the exact
// dependence sequence, and the effective trip count and unroll factor.
// Everything the compilation pipeline reads is in the skeleton; the only
// loop content outside it is the loop name and the operation names. Two
// loops with equal skeletons therefore compile to schedules that are
// byte-identical after renaming — the invariant the structural cache's
// remap step relies on.
//
// Skeleton is order-sensitive: permuting statements changes it even when
// the loops stay isomorphic. That is deliberate — the scheduler's
// tie-breaking is ID-based, so a permuted body may legitimately schedule
// differently, and serving it a remapped schedule would break the
// fresh-compile byte-identity guarantee. Fingerprint, by contrast, is
// permutation-invariant; the serving stack bridges the gap by aligning a
// permuted spelling onto the cached class leader's statement order with
// AlignLike (counted structural.reordered) and falls back to a fresh
// compile only when no alignment exists (structural.renumbered).
func Skeleton(l *Loop) string {
	b := make([]byte, 0, 16*(len(l.Ops)+len(l.Deps))+32)
	b = appendHeader(b, "sk1;", l)
	for _, op := range l.Ops {
		b = appendOpSig(b, op)
	}
	b = append(b, ';')
	for _, d := range l.Deps {
		b = strconv.AppendInt(b, int64(d.From), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(d.To), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(d.Dist), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(d.Kind), 10)
		b = append(b, ',')
	}
	return string(b)
}

// appendHeader appends "<tag>t=<trip>;u=<unroll>;n=<ops>;".
func appendHeader(b []byte, tag string, l *Loop) []byte {
	b = append(b, tag...)
	b = append(b, "t="...)
	b = strconv.AppendInt(b, int64(l.TripCount()), 10)
	b = append(b, ";u="...)
	b = strconv.AppendInt(b, int64(l.Unroll), 10)
	b = append(b, ";n="...)
	b = strconv.AppendInt(b, int64(len(l.Ops)), 10)
	return append(b, ';')
}

// appendOpSig appends "<kind>:<orig>:<phase>,".
func appendOpSig(b []byte, op *Op) []byte {
	b = strconv.AppendUint(b, uint64(op.Kind), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(op.Orig), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(op.Phase), 10)
	return append(b, ',')
}

// Fingerprint returns a deterministic hex digest of the loop's dependence
// structure up to operand renaming and node renumbering: the
// isomorphism-class key of the structural compile cache. Names never enter
// the hash; statement order enters only through each dependence's operand
// slot (operand order is semantic — `sub a b` and `sub b a` are different
// loops — so it is preserved, while the numbering of the statements
// themselves is canonicalized away).
//
// The labeling is Weisfeiler-Lehman-style color refinement: every op
// starts from a color derived from its kind and unroll lineage, and each
// round folds in the multiset of (direction, dep kind, distance, operand
// slot, neighbor color) edge signatures until the color partition stops
// refining or maxWLRounds rounds have run. Residual ties are broken by
// statement order, which keeps the pass linear-ish and deterministic; for
// the rare graphs WL cannot fully split (highly symmetric bodies, or long
// chains the round cap cuts short) two isomorphic spellings may then hash
// differently. That costs a missed structural hit, never a wrong one —
// hits are verified against the exact Skeleton before any schedule is
// reused.
//
// The serialization hashed is
//
//	"fp1;t=" trip ";u=" unroll ";n=" ops ";" (kind ":" orig ":" phase ",")*
//	";" (from ">" to ":" dist ":" kind ":" slot ",")*
//
// with ops in canonical order, endpoints as canonical indices and the
// edges sorted as strings.
func Fingerprint(l *Loop) string {
	n := len(l.Ops)
	colors, slot := wlRefine(l)

	// Canonical order: by final color, residual ties by statement order.
	order := make([]colorID, n)
	for i, c := range colors {
		order[i] = colorID{c, int32(i)}
	}
	slices.SortFunc(order, compareColorID)
	canon := make([]int32, n) // canon[id] = canonical index
	for ci, o := range order {
		canon[o.id] = int32(ci)
	}

	// Render every edge once into one buffer, then sort the edges as
	// strings by their spans in it.
	m := len(l.Deps)
	eb := make([]byte, 0, 16*m)
	spans := make([]span, m)
	for i, d := range l.Deps {
		lo := len(eb)
		eb = strconv.AppendInt(eb, int64(canon[d.From]), 10)
		eb = append(eb, '>')
		eb = strconv.AppendInt(eb, int64(canon[d.To]), 10)
		eb = append(eb, ':')
		eb = strconv.AppendInt(eb, int64(d.Dist), 10)
		eb = append(eb, ':')
		eb = strconv.AppendUint(eb, uint64(d.Kind), 10)
		eb = append(eb, ':')
		eb = strconv.AppendInt(eb, int64(slot[i]), 10)
		spans[i] = span{int32(lo), int32(len(eb))}
	}
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(eb[a.lo:a.hi], eb[b.lo:b.hi])
	})

	// Serialize the canonically relabeled skeleton and hash it.
	b := make([]byte, 0, 16*n+len(eb)+m+32)
	b = appendHeader(b, "fp1;", l)
	for _, o := range order {
		b = appendOpSig(b, l.Ops[o.id])
	}
	b = append(b, ';')
	for _, s := range spans {
		b = append(b, eb[s.lo:s.hi]...)
		b = append(b, ',')
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// colorID pairs an op's refined color with its statement index.
type colorID struct {
	c  uint64
	id int32
}

// compareColorID orders by color, then statement index: the stable sort
// by color that canonical labeling and AlignLike's pairing rely on.
func compareColorID(a, b colorID) int {
	if c := cmp.Compare(a.c, b.c); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// span is a half-open byte range of Fingerprint's edge buffer.
type span struct{ lo, hi int32 }

// maxWLRounds caps the refinement rounds. Each round splits color classes
// at most one dependence hop further, so a chain of n ops needs ~n/2
// rounds of O(n+m) work to stabilize: without a cap a 4000-op chain takes
// seconds to fingerprint, and the gateway fingerprints every request it
// routes. Every loop of the paper, stressed, kernel and traced corpora
// stabilizes within 6 rounds, so 16 leaves their fingerprints untouched.
// Colors after a capped round are still isomorphism-invariant (each round
// is), so a capped loop can only lose structural hits to residual
// statement-order ties — AlignLike then fails and the request compiles
// fresh — never gain a wrong one.
const maxWLRounds = 16

// wlRefine runs the Weisfeiler-Lehman color refinement shared by
// Fingerprint and AlignLike. It returns the stable per-op colors and each
// dependence's operand slot: its index among the deps of the same kind
// entering the same consumer, the order FlowInputs exposes.
//
// Storage is three allocations whatever the loop size: the returned slot
// array, one int32 arena (the per-(consumer, kind) slot counters and the
// CSR layout of each op's incident edges) and one uint64 arena (colors,
// next-round colors, the per-op edge signatures, which the CSR layout
// groups by op so each op's signature multiset sorts in place, and the
// distinct-color set).
func wlRefine(l *Loop) (colors []uint64, slot []int) {
	n, m := len(l.Ops), len(l.Deps)
	kinds := 0
	for _, d := range l.Deps {
		kinds = max(kinds, int(d.Kind)+1)
	}
	i32 := make([]int32, n*kinds+(n+1)+2*m)
	seen, i32 := i32[:n*kinds], i32[n*kinds:]
	off, pos := i32[:n+1], i32[n+1:]
	tbl := 1
	for tbl < 2*n {
		tbl *= 2
	}
	u64 := make([]uint64, 2*n+2*m+tbl)
	colors, next, sigs, table := u64[:n], u64[n:2*n], u64[2*n:2*n+2*m], u64[2*n+2*m:]

	slot = make([]int, m)
	for i, d := range l.Deps {
		k := d.To*kinds + int(d.Kind)
		slot[i] = int(seen[k])
		seen[k]++
	}

	// CSR layout of incident edges: dep i's consumer-side signature lives
	// at sigs[pos[2i]], its producer-side one at sigs[pos[2i+1]], and op
	// v's signatures fill sigs[off[v]:off[v+1]].
	for _, d := range l.Deps {
		off[d.To+1]++
		off[d.From+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	for i, d := range l.Deps {
		pos[2*i] = off[d.To]
		off[d.To]++
		pos[2*i+1] = off[d.From]
		off[d.From]++
	}
	for v := n; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0

	for i, op := range l.Ops {
		colors[i] = fpMix(0x9e3779b97f4a7c15 ^ uint64(op.Kind)<<32 ^
			uint64(uint32(op.Orig))<<8 ^ uint64(uint32(op.Phase)))
	}

	distinct := countDistinct(colors, table)
	for round := 0; round < n && round < maxWLRounds; round++ {
		for i, d := range l.Deps {
			edge := fpMix(uint64(d.Kind)<<48 ^ uint64(uint32(d.Dist))<<16 ^ uint64(uint32(slot[i])))
			// The consumer sees the producer's color and vice versa, tagged
			// with the direction so in- and out-edges cannot cancel out.
			sigs[pos[2*i]] = fpMix(edge ^ 0xa5a5a5a5 ^ colors[d.From])
			sigs[pos[2*i+1]] = fpMix(edge ^ 0x5a5a5a5a5a ^ colors[d.To])
		}
		for v := range next {
			s := sigs[off[v]:off[v+1]]
			slices.Sort(s)
			h := colors[v]
			for _, x := range s {
				h = fpMix(h ^ x)
			}
			next[v] = h
		}
		copy(colors, next)
		nd := countDistinct(colors, table)
		if nd == distinct {
			break // partition stable: further rounds cannot refine it
		}
		distinct = nd
	}
	return colors, slot
}

// fpMix is the splitmix64 finalizer: a cheap bijective avalanche used to
// combine color-refinement signatures.
func fpMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// countDistinct counts the distinct colors with an open-addressing set in
// table, whose length is a power of two at least twice len(colors). Colors
// are splitmix64 outputs, so their low bits index the table well; 0 marks
// an empty slot, so a zero color is counted on the side.
func countDistinct(colors, table []uint64) int {
	clear(table)
	mask := uint64(len(table) - 1)
	nd := 0
	zero := false
	for _, c := range colors {
		if c == 0 {
			if !zero {
				zero = true
				nd++
			}
			continue
		}
		for i := c & mask; ; i = (i + 1) & mask {
			if table[i] == c {
				break
			}
			if table[i] == 0 {
				table[i] = c
				nd++
				break
			}
		}
	}
	return nd
}
