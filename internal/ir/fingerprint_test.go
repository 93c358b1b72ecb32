package ir

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Loop {
	t.Helper()
	l, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return l
}

const fpBase = `
loop base
trip 64
op a load
op x load
op m mul a
op s add m x
op st store s
carried s m 1
mem st a 1
`

// fpRenamed is fpBase with every op (and the loop) renamed; the structure
// is untouched.
const fpRenamed = `
loop other
trip 64
op p load
op q load
op r mul p
op t add r q
op u store t
carried t r 1
mem u p 1
`

// fpReordered is fpBase with the two leaf loads swapped in statement
// order; operand order (m reads a; s reads m then x) is preserved, so the
// loops are isomorphic but not skeleton-equal.
const fpReordered = `
loop base
trip 64
op x load
op a load
op m mul a
op s add m x
op st store s
carried s m 1
mem st a 1
`

func TestFingerprintDeterministic(t *testing.T) {
	l := mustParse(t, fpBase)
	fp := Fingerprint(l)
	for i := 0; i < 5; i++ {
		if got := Fingerprint(l); got != fp {
			t.Fatalf("fingerprint changed across calls: %s vs %s", got, fp)
		}
	}
	if got := Fingerprint(l.Clone()); got != fp {
		t.Fatalf("fingerprint changed across Clone: %s vs %s", got, fp)
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}
}

func TestFingerprintRenameInvariant(t *testing.T) {
	a, b := mustParse(t, fpBase), mustParse(t, fpRenamed)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("renaming ops changed the fingerprint")
	}
	if Skeleton(a) != Skeleton(b) {
		t.Fatal("renaming ops changed the skeleton")
	}
}

func TestFingerprintRenumberInvariant(t *testing.T) {
	a, b := mustParse(t, fpBase), mustParse(t, fpReordered)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("permuting statement order changed the fingerprint")
	}
	if Skeleton(a) == Skeleton(b) {
		t.Fatal("permuting statement order must change the skeleton (remap guard)")
	}
}

// TestFingerprintSensitivity: every semantic mutation of the base loop
// must move the fingerprint — the structural key must never collide across
// behaviourally different loops that a test can tell apart.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(mustParse(t, fpBase))
	mutations := map[string]string{
		"kind":         strings.Replace(fpBase, "op m mul a", "op m add a", 1),
		"distance":     strings.Replace(fpBase, "carried s m 1", "carried s m 2", 1),
		"trip":         strings.Replace(fpBase, "trip 64", "trip 65", 1),
		"drop mem dep": strings.Replace(fpBase, "mem st a 1\n", "", 1),
		"operand swap": strings.Replace(fpBase, "op s add m x", "op s add x m", 1),
		"extra op":     fpBase + "op extra load\n",
	}
	for name, src := range mutations {
		if got := Fingerprint(mustParse(t, src)); got == base {
			t.Errorf("%s: mutated loop shares the base fingerprint", name)
		}
	}
}

// TestFingerprintPairwiseDistinct: a family of small, structurally
// distinct loops must produce pairwise distinct fingerprints.
func TestFingerprintPairwiseDistinct(t *testing.T) {
	srcs := []string{
		fpBase,
		"loop a\nop x load\n",
		"loop b\nop x load\nop y load\n",
		"loop c\nop x load\nop s store x\n",
		"loop d\nop x load\nop y add x\ncarried y y 1\n",
		"loop e\nop x load\nop y add x\ncarried y y 2\n",
		"loop f\nop x load\nop y mul x\ncarried y y 1\n",
		"loop g\nop x load\nop y add x x\n",
		"loop h\nop x load\nop y div x\n",
		"loop i\ntrip 7\nop x load\n",
	}
	seen := map[string]int{}
	for i, src := range srcs {
		fp := Fingerprint(mustParse(t, src))
		if j, dup := seen[fp]; dup {
			t.Errorf("loops %d and %d share fingerprint %s", i, j, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintSymmetricBody: automorphic ops (interchangeable leaves)
// must still fingerprint identically across spellings that permute them.
func TestFingerprintSymmetricBody(t *testing.T) {
	// Two identical independent chains: load->add->store, twice.
	chain := func(names [3]string) string {
		return fmt.Sprintf("op %s load\nop %s add %s\nop %s store %s\n",
			names[0], names[1], names[0], names[2], names[1])
	}
	a := "loop s\n" + chain([3]string{"a1", "a2", "a3"}) + chain([3]string{"b1", "b2", "b3"})
	b := "loop s\n" + chain([3]string{"b1", "b2", "b3"}) + chain([3]string{"a1", "a2", "a3"})
	if Fingerprint(mustParse(t, a)) != Fingerprint(mustParse(t, b)) {
		t.Fatal("swapping two automorphic chains changed the fingerprint")
	}
}

func TestSkeletonNameFree(t *testing.T) {
	l := mustParse(t, fpBase)
	sk := Skeleton(l)
	if strings.Contains(sk, "base") || strings.Contains(sk, "st") {
		t.Fatalf("skeleton leaks names: %q", sk)
	}
	r := l.Clone()
	for _, op := range r.Ops {
		op.Name = "z" + op.Name
	}
	r.Name = "zzz"
	if Skeleton(r) != sk {
		t.Fatal("renaming changed the skeleton")
	}
}

// TestKernelAllocs pins the allocation counts of the per-request kernels on
// one fixed loop: Skeleton renders into one buffer, Fingerprint's
// refinement and serialization use a fixed handful of arenas.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	l := mustParse(t, fpBase)
	if got := testing.AllocsPerRun(100, func() { Skeleton(l) }); got > 2 {
		t.Errorf("Skeleton: %.0f allocs, want <= 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { Fingerprint(l) }); got > 16 {
		t.Errorf("Fingerprint: %.0f allocs, want <= 16", got)
	}
}

// chainSrc renders an n-op dependence chain: an operand chain (each add
// reads the previous op) or, with order, n loads linked by distance-1
// order edges. Each refinement round splits such a chain only about two
// ops further from its ends.
func chainSrc(n int, order bool) string {
	var b strings.Builder
	b.WriteString("loop chain\nop o0 load\n")
	for i := 1; i < n; i++ {
		if order {
			fmt.Fprintf(&b, "op o%d load\n", i)
		} else {
			fmt.Fprintf(&b, "op o%d add o%d\n", i, i-1)
		}
	}
	if order {
		for i := 1; i < n; i++ {
			fmt.Fprintf(&b, "order o%d o%d 1\n", i-1, i)
		}
	}
	return b.String()
}

// TestLongChainsStayLinear: the refinement round cap keeps Fingerprint and
// AlignLike linear-ish on long chains, which the uncapped refinement
// needed ~n/2 rounds of O(n) work for (tens of seconds at 20,000 ops). The
// bound is checked here, on the test goroutine.
func TestLongChainsStayLinear(t *testing.T) {
	bound := 2 * time.Second
	if raceEnabled {
		bound *= 10
	}
	for _, order := range []bool{false, true} {
		l := mustParse(t, chainSrc(20000, order))
		r := l.Clone()
		r.Name = "renamed"
		start := time.Now()
		fp := Fingerprint(l)
		aligned, ok := AlignLike(r, l)
		if took := time.Since(start); took > bound {
			t.Errorf("order=%v: Fingerprint+AlignLike of a 20000-op chain took %v, over %v", order, took, bound)
		}
		if !ok || Skeleton(aligned) != Skeleton(l) {
			t.Errorf("order=%v: a renamed chain must align onto itself", order)
		}
		if Fingerprint(r) != fp {
			t.Errorf("order=%v: renaming changed a capped fingerprint", order)
		}
	}
}
