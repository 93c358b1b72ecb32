package ir

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Test-only oracles: the fmt/sort.Slice/map-based implementations of the
// loop parser, Skeleton, Fingerprint, AlignLike and the WL refinement that the
// allocation-light kernels replaced, kept verbatim (apart from their names
// and the refinement's missing round cap) so the differential tests and
// FuzzParseLoop can hold the kernels to byte-identical output.

// Exported for the external ir_test package, whose corpus-driven tests
// cannot live in package ir (internal/corpus imports ir).
var (
	OracleParseString = oracleParseString
	OracleSkeleton    = oracleSkeleton
	OracleFingerprint = oracleFingerprint
	OracleWLRefine    = oracleWLRefine
	OracleAlignLike   = oracleAlignLike
	WLRefine          = wlRefine
)

// MaxWLRounds exposes the refinement round cap to the external tests.
const MaxWLRounds = maxWLRounds

func oracleParse(r io.Reader) (*Loop, error) {
	l := New("")
	sc := bufio.NewScanner(r)
	lineNo := 0
	byName := map[string]*Op{}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("ir: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "loop":
			if len(fields) != 2 {
				return nil, fail("loop needs exactly one name")
			}
			l.Name = fields[1]
		case "trip":
			if len(fields) != 2 {
				return nil, fail("trip needs exactly one count")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fail("bad trip count %q", fields[1])
			}
			l.Trip = n
		case "op":
			if len(fields) < 3 {
				return nil, fail("op needs a name and a kind")
			}
			name := fields[1]
			if _, dup := byName[name]; dup {
				return nil, fail("duplicate op name %q", name)
			}
			kind, ok := parseKind(fields[2])
			if !ok {
				return nil, fail("unknown op kind %q", fields[2])
			}
			op := l.AddOp(kind, name)
			byName[name] = op
			for _, operand := range fields[3:] {
				src, ok := byName[operand]
				if !ok {
					return nil, fail("unknown operand %q", operand)
				}
				l.AddFlow(src, op)
			}
		case "carried", "mem", "order":
			if len(fields) != 4 {
				return nil, fail("%s needs <from> <to> <dist>", fields[0])
			}
			from, ok := byName[fields[1]]
			if !ok {
				return nil, fail("unknown op %q", fields[1])
			}
			to, ok := byName[fields[2]]
			if !ok {
				return nil, fail("unknown op %q", fields[2])
			}
			dist, err := strconv.Atoi(fields[3])
			if err != nil || dist < 0 {
				return nil, fail("bad distance %q", fields[3])
			}
			kind := Flow
			switch fields[0] {
			case "mem":
				kind = Mem
			case "order":
				kind = Order
			}
			if kind == Flow && dist == 0 {
				return nil, fail("carried distance must be >= 1 (use op operands for dist 0)")
			}
			l.AddDep(Dep{From: from.ID, To: to.ID, Dist: dist, Kind: kind})
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ir: reading loop: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

func oracleParseString(s string) (*Loop, error) { return oracleParse(strings.NewReader(s)) }

func oracleSkeleton(l *Loop) string {
	var b strings.Builder
	b.Grow(16 * (len(l.Ops) + len(l.Deps)))
	fmt.Fprintf(&b, "sk1;t=%d;u=%d;n=%d;", l.TripCount(), l.Unroll, len(l.Ops))
	for _, op := range l.Ops {
		fmt.Fprintf(&b, "%d:%d:%d,", op.Kind, op.Orig, op.Phase)
	}
	b.WriteByte(';')
	for _, d := range l.Deps {
		fmt.Fprintf(&b, "%d>%d:%d:%d,", d.From, d.To, d.Dist, d.Kind)
	}
	return b.String()
}

func oracleFingerprint(l *Loop) string {
	n := len(l.Ops)
	colors, slot, _ := oracleWLRefine(l)

	// Canonical order: by final color, residual ties by statement order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return colors[order[a]] < colors[order[b]] })
	canon := make([]int, n) // canon[id] = canonical index
	for ci, id := range order {
		canon[id] = ci
	}

	// Serialize the canonically relabeled skeleton and hash it.
	var b strings.Builder
	b.Grow(16 * (n + len(l.Deps)))
	fmt.Fprintf(&b, "fp1;t=%d;u=%d;n=%d;", l.TripCount(), l.Unroll, n)
	for _, id := range order {
		op := l.Ops[id]
		fmt.Fprintf(&b, "%d:%d:%d,", op.Kind, op.Orig, op.Phase)
	}
	b.WriteByte(';')
	edges := make([]string, len(l.Deps))
	for i, d := range l.Deps {
		edges[i] = fmt.Sprintf("%d>%d:%d:%d:%d", canon[d.From], canon[d.To], d.Dist, d.Kind, slot[i])
	}
	sort.Strings(edges)
	for _, e := range edges {
		b.WriteString(e)
		b.WriteByte(',')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// oracleWLRefine is the uncapped refinement; rounds reports how many
// rounds it ran, so callers can tell whether the capped kernel ran the
// same ones.
func oracleWLRefine(l *Loop) (colors []uint64, slot []int, rounds int) {
	n := len(l.Ops)
	slot = make([]int, len(l.Deps))
	{
		type ck struct {
			to   int
			kind DepKind
		}
		seen := make(map[ck]int, len(l.Deps))
		for i, d := range l.Deps {
			k := ck{d.To, d.Kind}
			slot[i] = seen[k]
			seen[k]++
		}
	}

	colors = make([]uint64, n)
	for i, op := range l.Ops {
		colors[i] = fpMix(0x9e3779b97f4a7c15 ^ uint64(op.Kind)<<32 ^
			uint64(uint32(op.Orig))<<8 ^ uint64(uint32(op.Phase)))
	}

	next := make([]uint64, n)
	sigs := make([][]uint64, n)
	distinct := oracleCountDistinct(colors)
	for round := 0; round < n; round++ {
		rounds++
		for i := range sigs {
			sigs[i] = sigs[i][:0]
		}
		for i, d := range l.Deps {
			edge := fpMix(uint64(d.Kind)<<48 ^ uint64(uint32(d.Dist))<<16 ^ uint64(uint32(slot[i])))
			// The consumer sees the producer's color and vice versa, tagged
			// with the direction so in- and out-edges cannot cancel out.
			sigs[d.To] = append(sigs[d.To], fpMix(edge^0xa5a5a5a5^colors[d.From]))
			sigs[d.From] = append(sigs[d.From], fpMix(edge^0x5a5a5a5a5a^colors[d.To]))
		}
		for i := range next {
			s := sigs[i]
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			h := colors[i]
			for _, v := range s {
				h = fpMix(h ^ v)
			}
			next[i] = h
		}
		copy(colors, next)
		nd := oracleCountDistinct(colors)
		if nd == distinct {
			break // partition stable: further rounds cannot refine it
		}
		distinct = nd
	}
	return colors, slot, rounds
}

func oracleCountDistinct(colors []uint64) int {
	seen := make(map[uint64]struct{}, len(colors))
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

func oracleAlignLike(l, target *Loop) (aligned *Loop, ok bool) {
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

	colorsL, slotL, _ := oracleWLRefine(l)
	colorsT, slotT, _ := oracleWLRefine(target)

	groupT := make(map[uint64][]int, n)
	for i, c := range colorsT {
		groupT[c] = append(groupT[c], i)
	}
	pi := make([]int, n) // pi[i] = target position of l's op i
	taken := make(map[uint64]int, len(groupT))
	for i, c := range colorsL {
		g := groupT[c]
		k := taken[c]
		if k >= len(g) {
			return nil, false
		}
		taken[c] = k + 1
		j := g[k]
		if l.Ops[i].Kind != target.Ops[j].Kind || l.Ops[i].Phase != target.Ops[j].Phase {
			return nil, false
		}
		pi[i] = j
	}
	for c, g := range groupT {
		if taken[c] != len(g) {
			return nil, false
		}
	}

	type dkey struct {
		from, to int
		dist     int
		kind     DepKind
		slot     int
	}
	mapped := make(map[dkey]struct{}, len(l.Deps))
	for i, d := range l.Deps {
		k := dkey{pi[d.From], pi[d.To], d.Dist, d.Kind, slotL[i]}
		if _, dup := mapped[k]; dup {
			return nil, false
		}
		mapped[k] = struct{}{}
	}
	for j, d := range target.Deps {
		if _, hit := mapped[dkey{d.From, d.To, d.Dist, d.Kind, slotT[j]}]; !hit {
			return nil, false
		}
	}

	aligned = &Loop{
		Name:   l.Name,
		Trip:   l.Trip,
		Unroll: l.Unroll,
		Ops:    make([]*Op, n),
		Deps:   append([]Dep(nil), target.Deps...),
	}
	for i, op := range l.Ops {
		cp := *op
		cp.ID = pi[i]
		aligned.Ops[pi[i]] = &cp
	}
	return aligned, true
}
