package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseLoop fuzzes the loop text parser — the service's other trust
// boundary besides ParseMachine. The invariants are crash-freedom, a
// canonical round-trip — anything ParseString accepts, Format must render
// into text that reparses and reformats to the identical bytes (loops
// parsed without a `loop` header have no name and format as "loop \n",
// which the parser rightly rejects, so the round-trip check applies to
// named loops) — and agreement with the Scanner-based oracle parser: same
// accept/reject, same error text, same loop. Every accepted loop's
// dependence index must match the direct scans (checkIndex), and accepted
// loops whose refinement converges within the round cap must also
// skeleton and fingerprint exactly as the oracles do.
func FuzzParseLoop(f *testing.F) {
	f.Add("loop daxpy\ntrip 200\nop a load\nop x load\nop m mul a\nop s add m x\nop st store s\n")
	f.Add("loop rec\ntrip 64\nop a load\nop s add a\nop st store s\ncarried s s 1\n")
	f.Add("loop memdep\ntrip 8\nop a load\nop st store a\nmem st a 1\norder st a 0\n")
	f.Add("# only a comment\n")
	f.Add("loop x\ntrip 0\n")
	f.Add("op dup load\nop dup load\n")
	f.Add("loop x\nop a add b\n")
	f.Add(strings.Repeat("op a load\n", 2))
	f.Add("loop crlf\r\ntrip 8\r\nop a load\r\nop s store a\r\n")
	f.Add("loop\vws\ntrip\f8\nop a\vload\nop s\fstore a\n")
	f.Add("loop\u0085nel\nop a load\nop s store\u0085a\n")
	f.Add("loop long\n#" + strings.Repeat("x", 70000) + "\nop a load\n")
	f.Add("loop nofinal\nop a load\nop s store a")
	f.Add("# one\n   # two\n\t# three\nloop c\n# four\nop a load # five\n")
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseString(src)
		ol, oerr := oracleParseString(src)
		if fmt.Sprint(err) != fmt.Sprint(oerr) {
			t.Fatalf("ParseString error %v, oracle %v\ninput: %q", err, oerr, src)
		}
		if !reflect.DeepEqual(l, ol) {
			t.Fatalf("ParseString and the oracle built different loops\ninput: %q", src)
		}
		if err != nil {
			return
		}
		checkIndex(t, l)
		out := FormatString(l)
		if out != FormatString(ol) {
			t.Fatalf("formatted loops differ\ninput: %q", src)
		}
		if _, _, rounds := oracleWLRefine(l); rounds <= maxWLRounds {
			if got, want := Skeleton(l), oracleSkeleton(l); got != want {
				t.Fatalf("Skeleton %q, oracle %q\ninput: %q", got, want, src)
			}
			if got, want := Fingerprint(l), oracleFingerprint(l); got != want {
				t.Fatalf("Fingerprint %s, oracle %s\ninput: %q", got, want, src)
			}
		}
		if l.Name == "" {
			return
		}
		l2, err := ParseString(out)
		if err != nil {
			t.Fatalf("formatted loop does not reparse: %v\ninput: %q\nformatted: %q", err, src, out)
		}
		if again := FormatString(l2); again != out {
			t.Fatalf("format not canonical:\nfirst:  %q\nsecond: %q", out, again)
		}
	})
}
