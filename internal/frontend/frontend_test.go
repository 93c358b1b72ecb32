package frontend

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"vliwq/internal/ir"
)

func parseFile(t *testing.T, path string) *Program {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		t.Fatalf("Parse(%s): %v", path, err)
	}
	return p
}

func TestKernelTraceRegions(t *testing.T) {
	p := parseFile(t, "testdata/kernel.trace")
	if p.Name != "kernelmix" {
		t.Fatalf("program name = %q, want kernelmix", p.Name)
	}
	if len(p.Regions) < 3 {
		t.Fatalf("recovered %d regions, want >= 3", len(p.Regions))
	}
	wantLabels := []string{"L0", "L1", "L2", "L3"}
	wantTrips := []int{64, 96, 80, 32}
	wantOps := []int{6, 7, 13, 5}
	if len(p.Regions) != len(wantLabels) {
		t.Fatalf("recovered %d regions, want %d", len(p.Regions), len(wantLabels))
	}
	for i, r := range p.Regions {
		if r.Label != wantLabels[i] || r.Trip != wantTrips[i] {
			t.Errorf("region %d = %q trip %d, want %q trip %d", i, r.Label, r.Trip, wantLabels[i], wantTrips[i])
		}
		if got := r.End - r.Start; got != wantOps[i] {
			t.Errorf("region %q body = %d insts, want %d", r.Label, got, wantOps[i])
		}
		if r.Loop == nil || r.Loop.Name != r.Label {
			t.Fatalf("region %q: missing or misnamed lifted loop", r.Label)
		}
		if err := r.Loop.Validate(); err != nil {
			t.Errorf("region %q: lifted loop invalid: %v", r.Label, err)
		}
		if r.Loop.TripCount() != r.Trip {
			t.Errorf("region %q: lifted trip %d, want %d", r.Label, r.Loop.TripCount(), r.Trip)
		}
		if r.Discharged == 0 {
			t.Errorf("region %q: expected discharged anti/output deps, got none", r.Label)
		}
	}
	if g := p.Glue(); len(g) != 18 {
		t.Errorf("glue = %d instructions, want 18", len(g))
	}
}

// TestDepInference pins the inferred dependence graph of a small region:
// true deps with distance 0 (in-iteration) and 1 (through the back-edge),
// anti/output deps recorded but discharged, and memory ordering for an
// invariant base (read-modify-write of one address).
func TestDepInference(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r1, 5
	mov r4, 100
	mov r5, 8
L0:
	ld r9, [r4]
	add r9, r9, r1
	st r9, [r4]
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	want := map[string]bool{
		// ld0 -> add1 (r9), add1 -> st2 (r9): in-iteration true deps.
		"true r9 0->1 d0": true,
		"true r9 1->2 d0": true,
		// sub3 reads its own previous write through the back-edge.
		"true r5 3->3 d1": true,
		// st2 -> ld0 anti on memory? No: r9 anti deps are register WAR.
		"anti r9 1->1 d1":   false, // add1's read is satisfied by ld0's write in-iteration... see below
		"output r9 0->1 d0": true,
		"output r9 1->0 d1": true,
		"output r5 3->3 d1": true,
		// Invariant base r4: ld..st ordered in-iteration, st wraps to ld.
		"mem r4 0->2 d0": true,
		"mem r4 2->0 d1": true,
	}
	got := make(map[string]bool)
	for _, d := range r.Deps {
		got[depString(d)] = true
	}
	for k, must := range want {
		if must && !got[k] {
			t.Errorf("missing dep %q in %v", k, keys(got))
		}
	}
	// ld0's write-after-read of r4? r4 is never written in-region: no anti.
	for k := range got {
		if strings.Contains(k, "anti r4") || strings.Contains(k, "output r4") {
			t.Errorf("spurious invariant-base register hazard %q", k)
		}
	}
	// The lift discharges every anti/output dep and keeps true + mem.
	lifted := 0
	for _, d := range r.Deps {
		if d.Class == DepAnti || d.Class == DepOutput {
			continue
		}
		lifted++
	}
	if len(r.Loop.Deps) < lifted {
		t.Errorf("lifted %d deps, want >= %d (true+mem)", len(r.Loop.Deps), lifted)
	}
	if r.Discharged == 0 {
		t.Error("no discharged deps recorded")
	}
	// sub3's value is read only by the branch: it must still be consumed
	// (carried self-read), so no sink; every op's value is consumed.
	for _, op := range r.Loop.Ops {
		if strings.HasPrefix(op.Name, "sink") {
			t.Errorf("unexpected sink %s: every value in this region is consumed", op.Name)
		}
	}
}

func depString(d RegDep) string {
	return fmt.Sprintf("%s %s %d->%d d%d", d.Class, d.Reg, d.From, d.To, d.Dist)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSinkInsertion: a produced value consumed neither in-iteration nor
// through the back-edge gets an explicit store sink.
func TestSinkInsertion(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r2, 100
	mov r5, 8
L0:
	ld r9, [r2]
	mul r10, r9, r9
	add r2, r2, 8
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Regions[0].Loop
	sinks := 0
	for _, op := range l.Ops {
		if strings.HasPrefix(op.Name, "sink") {
			sinks++
		}
	}
	if sinks != 1 {
		t.Fatalf("sinks = %d, want 1 (mul's value is dead in-region)", sinks)
	}
}

// TestBumpedBaseNoCarriedMem: accesses through a base the region advances
// never alias across iterations — a strided store must not serialise the
// loop.
func TestBumpedBaseNoCarriedMem(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r2, 100
	mov r5, 8
	mov r6, 1
L0:
	st r6, [r2]
	add r2, r2, 8
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p.Regions[0].Deps {
		if d.Class == DepMem && d.Dist > 0 {
			t.Fatalf("spurious carried mem dep %v on a bumped base", d)
		}
	}
}

// TestStoreOrdersAfterAllPriorLoads: a store conflicts with every load
// since the previous store, not just the nearest access — and on a
// revisiting base the carried ordering covers every access up to the
// next iteration's first store, plus a store→store self-recurrence.
func TestStoreOrdersAfterAllPriorLoads(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r1, 100
	mov r5, 8
	mov r11, 7
L0:
	ld r9, [r1]
	ld r10, [r1]
	st r11, [r1]
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, d := range p.Regions[0].Deps {
		if d.Class == DepMem {
			got[depString(d)] = true
		}
	}
	for _, want := range []string{
		// Both loads must read the old value before the store clobbers it.
		"mem r1 0->2 d0",
		"mem r1 1->2 d0",
		// Invariant base: the store reaches every access of the next
		// iteration up to and including itself.
		"mem r1 2->0 d1",
		"mem r1 2->1 d1",
		"mem r1 2->2 d1",
	} {
		if !got[want] {
			t.Errorf("missing mem dep %q in %v", want, keys(got))
		}
	}
}

// TestTrailingLoadOrdersBeforeNextStore: a load left open after the last
// store must complete before the next iteration's first store overwrites
// the address (carried WAR on memory).
func TestTrailingLoadOrdersBeforeNextStore(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r4, 100
	mov r5, 8
	mov r6, 3
L0:
	st r6, [r4]
	ld r9, [r4]
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, d := range p.Regions[0].Deps {
		if d.Class == DepMem {
			got[depString(d)] = true
		}
	}
	for _, want := range []string{"mem r4 0->1 d0", "mem r4 0->0 d1", "mem r4 1->0 d1"} {
		if !got[want] {
			t.Errorf("missing mem dep %q in %v", want, keys(got))
		}
	}
}

// TestNonStridedRedefKeepsCarriedMem: redefining a base in-region only
// discharges carried ordering when every write is a same-direction
// nonzero-stride self-update. A copy from an invariant register or a
// zero-net bump revisits the same address and must keep its carried dep.
func TestNonStridedRedefKeepsCarriedMem(t *testing.T) {
	cases := []struct{ name, src string }{
		{"invariant copy", `
	mov r0, 0
	mov r5, 8
	mov r6, 1
	mov r7, 100
L0:
	mov r2, r7
	st r6, [r2]
	sub r5, r5, 1
	bne r5, r0, L0
`},
		{"zero net stride", `
	mov r0, 0
	mov r2, 100
	mov r5, 8
	mov r6, 1
L0:
	add r2, r2, 4
	st r6, [r2]
	sub r2, r2, 4
	sub r5, r5, 1
	bne r5, r0, L0
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParseString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			carried := false
			for _, d := range p.Regions[0].Deps {
				if d.Class == DepMem && d.Dist > 0 {
					carried = true
				}
			}
			if !carried {
				t.Fatal("revisiting base lost its carried mem dep")
			}
		})
	}
}

// TestCopiedBaseSharesAliasGroup: an access through a mov-copied base
// register aliases accesses through the original, so the pair is ordered.
func TestCopiedBaseSharesAliasGroup(t *testing.T) {
	p, err := ParseString(`
	mov r0, 0
	mov r1, 100
	mov r5, 8
	mov r6, 2
L0:
	st r6, [r1]
	mov r2, r1
	ld r9, [r2]
	sub r5, r5, 1
	bne r5, r0, L0
`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range p.Regions[0].Deps {
		if d.Class == DepMem && d.From == 0 && d.To == 2 && d.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("store [r1] and load [r2] (r2 = copy of r1) are unordered")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", "\tfoo r1, r2\n", `frontend: line 1: unknown mnemonic "foo"`},
		{"commas only", "\t, ,\n", `frontend: line 1: malformed line ", ,"`},
		{"malformed operands", "\tmov r1\n", "frontend: line 1: mov wants a destination and one source"},
		{"bad register", "\tmov rq, 4\n", `frontend: line 1: bad register "rq"`},
		{"bad memory operand", "\tmov r1, 0\n\tld r2, r1\n", `frontend: line 2: bad memory operand "r1"`},
		{"bad immediate", "\tmov r1, 12x\n", `frontend: line 1: bad operand "12x"`},
		{"undefined register", "\tmov r1, r9\n", "frontend: line 1: register r9 read before any write"},
		{"self init", "\tadd r1, r1, 1\n", "frontend: line 1: register r1 read before any write"},
		{"undefined branch target", "\tmov r0, 0\n\tbne r0, r0, L9\n", `frontend: line 2: branch to undefined label "L9" (forward branches are not supported)`},
		{"duplicate label", "L0:\n\tmov r0, 0\nL0:\n\tmov r1, 0\n", `frontend: line 3: duplicate label "L0"`},
		{"stacked labels", "L0:\nL1:\n\tmov r0, 0\n", `frontend: line 2: label "L1" collides with label "L0" on the same instruction`},
		{"dangling label", "\tmov r0, 0\nL0:\n", `frontend: line 2: label "L0" is not followed by an instruction`},
		{"empty region", "\tmov r0, 0\nL0:\n\tbeq r0, r0, L0\n", `frontend: line 3: empty loop region "L0"`},
		{"irreducible overlap", `	mov r0, 0
	mov r5, 8
L0:
	add r5, r5, 1
L1:
	sub r5, r5, 1
	bne r5, r0, L0
	bne r5, r0, L1
`, `frontend: line 8: irreducible back-edge to "L1": loop region overlaps region "L0"`},
		{"trip outside region", "\ttrip 8\n\tmov r0, 0\n", "frontend: line 1: trip directive outside any loop region"},
		{"bad trip", "\ttrip zero\n", `frontend: line 1: trip wants a positive count, got "zero"`},
		{"duplicate prog", "prog a\nprog b\n", "frontend: line 2: duplicate prog directive"},
		{"bad label chars", "9L:\n\tmov r0, 0\n", `frontend: line 1: bad label "9L"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("expected error %q, got none", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

// formatString is Format into a string.
func formatString(p *Program) string {
	var b strings.Builder
	_ = Format(&b, p)
	return b.String()
}

// TestFormatRoundTrip: Format's output reparses to an equivalent program
// and re-formats byte-identically, with every region lifting to the same
// skeleton.
func TestFormatRoundTrip(t *testing.T) {
	p1 := parseFile(t, "testdata/kernel.trace")
	txt := formatString(p1)
	p2, err := ParseString(txt)
	if err != nil {
		t.Fatalf("reparse of canonical form: %v\n%s", err, txt)
	}
	if got := formatString(p2); got != txt {
		t.Fatalf("canonical form not idempotent:\n%s\nvs\n%s", txt, got)
	}
	if len(p2.Regions) != len(p1.Regions) {
		t.Fatalf("round trip changed region count: %d vs %d", len(p2.Regions), len(p1.Regions))
	}
	for i := range p1.Regions {
		if ir.Skeleton(p1.Regions[i].Loop) != ir.Skeleton(p2.Regions[i].Loop) {
			t.Fatalf("region %d changed skeleton across the round trip", i)
		}
	}
}
