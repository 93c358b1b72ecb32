package frontend

import (
	"os"
	"testing"

	"vliwq/internal/ir"
)

// FuzzParseTrace pins the lift→render→lift round trip: any trace the
// parser accepts must re-render to a canonical spelling that (a) parses,
// (b) re-renders byte-identically (the canonical form is a fixed point),
// and (c) recovers the same regions lifting to skeleton-identical loops.
func FuzzParseTrace(f *testing.F) {
	if data, err := os.ReadFile("testdata/kernel.trace"); err == nil {
		f.Add(string(data))
	}
	f.Add("prog t\n\tmov r0, 0\n\tmov r5, 4\nL0:\n\ttrip 8\n\tadd r5, r5, -1\n\tbne r5, r0, L0\n")
	f.Add("\tmov r0, 0\n\tmov r2, 64\n\tmov r5, 9\nL0:\n\tld r9, [r2+8]\n\tst r9, [r2-8]\n\tadd r2, r2, 16\n\tsub r5, r5, 1\n\tbne r5, r0, L0\n")
	f.Add("# comment only\n")
	f.Add("\tmov r1, 42\n\tdiv r1, r1, r1\n")
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := ParseString(src)
		if err != nil {
			return // rejected inputs only need a deterministic error
		}
		txt := formatString(p1)
		p2, err := ParseString(txt)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ninput:\n%s\ncanonical:\n%s", err, src, txt)
		}
		if got := formatString(p2); got != txt {
			t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", txt, got)
		}
		if len(p2.Regions) != len(p1.Regions) {
			t.Fatalf("region count changed: %d vs %d", len(p1.Regions), len(p2.Regions))
		}
		for i := range p1.Regions {
			a, b := p1.Regions[i], p2.Regions[i]
			if ir.Skeleton(a.Loop) != ir.Skeleton(b.Loop) {
				t.Fatalf("region %d skeleton changed across round trip", i)
			}
			if len(a.Deps) != len(b.Deps) || a.Discharged != b.Discharged {
				t.Fatalf("region %d dependence graph changed across round trip", i)
			}
		}
	})
}
