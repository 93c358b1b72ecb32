package ir

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func chain(t *testing.T) *Loop {
	t.Helper()
	l := New("chain")
	a := l.AddOp(KLoad, "a")
	b := l.AddOp(KMul, "b")
	l.AddFlow(a, b)
	c := l.AddOp(KStore, "c")
	l.AddFlow(b, c)
	return l
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := chain(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Loop)
		want error
	}{
		{"empty", func(l *Loop) { l.Ops = nil }, ErrEmptyLoop},
		{"bad-dep-target", func(l *Loop) { l.Deps[0].To = 99 }, ErrBadOpID},
		{"negative-dist", func(l *Loop) { l.Deps[0].Dist = -1 }, ErrNegativeDist},
		{"self-dep", func(l *Loop) { l.AddDep(Dep{From: 1, To: 1, Kind: Flow}) }, ErrSelfDep},
		{"store-produces", func(l *Loop) { l.AddDep(Dep{From: 2, To: 1, Kind: Flow}) }, ErrStoreProduces},
		{"bad-kind", func(l *Loop) { l.Ops[0].Kind = KInvalid }, ErrBadKind},
		{"too-many-inputs", func(l *Loop) {
			d := l.AddOp(KLoad, "d")
			l.AddFlow(d, l.Ops[1])
			e := l.AddOp(KLoad, "e")
			l.AddFlow(e, l.Ops[1])
		}, ErrTooManyInputs},
		{"zero-cycle", func(l *Loop) {
			l.AddDep(Dep{From: 1, To: 0, Kind: Flow}) // b -> a closes a 0-dist cycle
		}, ErrZeroDistCycle},
	}
	for _, c := range cases {
		l := chain(t)
		c.mut(l)
		if err := l.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
		if order, err := l.TopoOrder(nil); order != nil || !errors.Is(err, c.want) {
			t.Errorf("%s: TopoOrder = %v, %v; want %v", c.name, order, err, c.want)
		}
	}
}

func TestValidateAllowsCarriedCycle(t *testing.T) {
	l := chain(t)
	l.AddDep(Dep{From: 1, To: 1, Dist: 1, Kind: Flow}) // carried self-recurrence
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	l := chain(t)
	order, err := l.TopoOrder(nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(l.Ops))
	for i, id := range order {
		pos[id] = i
	}
	for _, d := range l.Deps {
		if d.Dist == 0 && pos[d.From] >= pos[d.To] {
			t.Fatalf("topo order violates %v", d)
		}
	}
}

// TestValidatePoisonedScratch: on a scratch and an order buffer that a
// larger loop sized and junk then filled to their capacity, validate
// gives the verdict and order a fresh scratch gives, so nothing a call
// leaves behind reaches the next.
func TestValidatePoisonedScratch(t *testing.T) {
	line := func(name string, n int) *Loop {
		l := New(name)
		for i := 0; i < n; i++ {
			op := l.AddOp(KAdd, "")
			if i%3 != 0 {
				l.AddFlow(l.Ops[i-1], op)
			}
			if i >= 2 {
				l.AddDep(Dep{From: i - 2, To: i, Kind: Order})
			}
		}
		return l
	}
	cyclic := chain(t)
	cyclic.Name = "cyclic"
	cyclic.AddDep(Dep{From: 1, To: 0, Kind: Order})
	var scr zdcScratch
	order, _ := line("sizing", 400).validate(&scr, nil)
	for _, l := range []*Loop{chain(t), cyclic, line("line", 40)} {
		for _, a := range [][]int32{scr.nIn, scr.off, scr.flat, scr.indeg, scr.order, order} {
			a = a[:cap(a)]
			for i := range a {
				a[i] = 9
			}
		}
		want, wantErr := l.validate(new(zdcScratch), nil)
		var err error
		order, err = l.validate(&scr, order)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(order, want) {
			t.Fatalf("%s: on a poisoned scratch %v, %v; on a fresh one %v, %v", l.Name, order, err, want, wantErr)
		}
	}
}

func TestLatencies(t *testing.T) {
	want := map[OpKind]int{KLoad: 2, KStore: 1, KAdd: 1, KMul: 2, KDiv: 8, KCopy: 1, KMove: 1}
	for k, lat := range want {
		if got := k.Latency(); got != lat {
			t.Errorf("%v latency = %d, want %d", k, got, lat)
		}
	}
	if KInvalid.Latency() != 0 {
		t.Error("invalid kind must have zero latency")
	}
}

func TestFanoutAndFlowIO(t *testing.T) {
	l := New("fan")
	a := l.AddOp(KLoad, "a")
	b := l.AddOp(KAdd, "b")
	c := l.AddOp(KAdd, "c")
	l.AddFlow(a, b)
	l.AddFlow(a, c)
	s1 := l.AddOp(KStore, "s1")
	l.AddFlow(b, s1)
	s2 := l.AddOp(KStore, "s2")
	l.AddFlow(c, s2)
	if got := l.Fanout(a); got != 2 {
		t.Fatalf("fanout(a) = %d, want 2", got)
	}
	if got := l.MaxFanout(); got != 2 {
		t.Fatalf("MaxFanout = %d, want 2", got)
	}
	if got := len(l.FlowInputs(b)); got != 1 {
		t.Fatalf("FlowInputs(b) = %d, want 1", got)
	}
	if got := len(l.FlowOutputs(a)); got != 2 {
		t.Fatalf("FlowOutputs(a) = %d, want 2", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := chain(t)
	l.Trip = 7
	c := l.Clone()
	c.Ops[0].Kind = KDiv
	c.Deps[0].Dist = 3
	c.AddOp(KAdd, "new")
	if l.Ops[0].Kind != KLoad || l.Deps[0].Dist != 0 || len(l.Ops) != 3 {
		t.Fatal("clone shares state with the original")
	}
	if c.Trip != 7 {
		t.Fatal("clone lost trip count")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `# horner-like kernel
loop daxpy
trip 200
op a load
op x load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`
	l, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "daxpy" || l.Trip != 200 || len(l.Ops) != 6 {
		t.Fatalf("parsed loop wrong: %s trip=%d ops=%d", l.Name, l.Trip, len(l.Ops))
	}
	// Round-trip: format and re-parse must be structurally identical.
	text := FormatString(l)
	l2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(l2.Ops) != len(l.Ops) || len(l2.Deps) != len(l.Deps) || l2.Trip != l.Trip {
		t.Fatalf("round trip changed shape:\n%s", text)
	}
	for i := range l.Ops {
		if l.Ops[i].Kind != l2.Ops[i].Kind {
			t.Fatalf("op %d kind changed", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"unknown-kind", "op a frobnicate", "unknown op kind"},
		{"unknown-operand", "op a add zzz", "unknown operand"},
		{"dup-name", "op a load\nop a load", "duplicate"},
		{"bad-trip", "trip x", "bad trip"},
		{"bad-directive", "frob a b", "unknown directive"},
		{"carried-zero", "op a add\nop b add a\ncarried a b 0", "distance must be >= 1"},
		{"carried-unknown", "op a add\ncarried a zz 1", "unknown op"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.frag)
		}
	}
}

func TestWriteDot(t *testing.T) {
	var b strings.Builder
	l := chain(t)
	l.AddDep(Dep{From: 1, To: 1, Dist: 2, Kind: Flow})
	if err := WriteDot(&b, l); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"digraph", "n0 -> n1", `label="2"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, out)
		}
	}
}

func TestEvalDeterminismAndSensitivity(t *testing.T) {
	l := chain(t)
	mul := l.Ops[1]
	a := Eval(mul, 3, []int64{10, 20})
	b := Eval(mul, 3, []int64{10, 20})
	if a != b {
		t.Fatal("Eval not deterministic")
	}
	if Eval(mul, 3, []int64{20, 10}) == a {
		t.Fatal("Eval(mul) should be operand-order sensitive")
	}
	if LeafValue(1, 0) == LeafValue(1, 1) || LeafValue(1, 0) == LeafValue(2, 0) {
		t.Fatal("LeafValue collisions across id/iter")
	}
	if LeafValue(1, -1) == LeafValue(1, 1) {
		t.Fatal("LeafValue must distinguish negative iterations")
	}
}

func TestOrigIterMapping(t *testing.T) {
	l := New("u")
	op := l.AddOp(KAdd, "a")
	op.Phase = 2
	l.Unroll = 4
	if got := l.OrigIter(op, 3); got != 14 {
		t.Fatalf("OrigIter = %d, want 14", got)
	}
	if got := l.OrigIter(op, -1); got != -2 {
		t.Fatalf("OrigIter(-1) = %d, want -2", got)
	}
}

func TestEffID(t *testing.T) {
	l := New("e")
	a := l.AddOp(KAdd, "a")
	if a.EffID() != a.ID {
		t.Fatal("unlineaged op must use its own ID")
	}
	a.Orig = 7
	if a.EffID() != 7 {
		t.Fatal("lineaged op must use Orig")
	}
}

func TestKindStringAndValid(t *testing.T) {
	if KLoad.String() != "load" || KCopy.String() != "copy" {
		t.Fatal("kind names wrong")
	}
	if KInvalid.Valid() || !KMove.Valid() {
		t.Fatal("Valid() wrong")
	}
	if OpKind(250).String() == "" {
		t.Fatal("out-of-range kind must still print")
	}
}
