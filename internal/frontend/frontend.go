// Package frontend lifts textual RISC-style instruction traces into the
// loop IR. A trace is a flat instruction stream — loads, stores, ALU and
// multiply ops over named registers, plus conditional branches — in which
// loops appear as backward branches to labels. The parser recovers those
// loop regions, infers each region's dependence graph (true, anti and
// output register dependences with loop-carried distances derived from
// the back-edge, plus memory ordering), and lifts every region to an
// internal/ir loop ready for the modulo-scheduling pipeline. Everything
// outside the regions is inter-region glue code, carried alongside so a
// whole program can be rescheduled region by region and re-merged (see
// internal/program and DESIGN.md §15).
//
// The grammar, one item per line ('#' starts a comment):
//
//	prog <name>                   optional program name (default "trace")
//	<label>:                      labels the next instruction
//	trip <n>                      trip count for the enclosing region
//	ld   rD, [rB]                 load  (also [rB+off] / [rB-off])
//	st   rS, [rB]                 store
//	add|sub|and|or|xor|cmp rD, src, src
//	mov  rD, src                  src is a register or an integer literal
//	mul|div rD, src, src
//	bne|beq|blt|bge rA, rB, <label>   backward conditional branch
//
// Every register must be written before it is first read (loop-invariant
// inputs are initialised by glue code ahead of the region), and branch
// targets must be labels already seen — forward branches and overlapping
// (irreducible) back-edges are errors. Parsing is deterministic: the same
// trace always yields the same Program, regions and lifted loops.
//
// Memory disambiguation contract: two accesses are assumed to conflict
// only when they address through the same base value — the same base
// register under the same reaching definition, with in-region register
// copies (mov rB, rX) folded into the copied register's group. Accesses
// through bases not related by an in-region copy are assumed DISJOINT;
// traces in which two unrelated bases hold overlapping addresses are
// outside the input contract and their cross-base orderings are not
// preserved. Within a group the ordering is conservative: stores order
// after every access since the previous store, and a base is exempt from
// cross-iteration (carried) ordering only when it provably never
// revisits an address — every in-region write to it is a self-update by
// a nonzero immediate stride, all stepping the same direction. See
// DESIGN.md §15.
package frontend

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vliwq/internal/ir"
)

// Class is an instruction's functional class, mirroring the trace's
// ALU/MUL/MEM/BRANCH op repertoire.
type Class uint8

const (
	ClassALU Class = iota
	ClassMul
	ClassMem
	ClassBranch
)

// Operand is a source operand: a register name or an integer immediate.
type Operand struct {
	Reg string // canonical register name ("r3"); "" for an immediate
	Imm int64
}

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return o.Reg != "" }

func (o Operand) String() string {
	if o.IsReg() {
		return o.Reg
	}
	return strconv.FormatInt(o.Imm, 10)
}

// Inst is one parsed trace instruction.
type Inst struct {
	Line     int    // 1-based source line
	Label    string // label defined immediately before this instruction, if any
	Mnemonic string
	Class    Class
	Dest     string    // destination register; "" for stores and branches
	Srcs     []Operand // value operands in operand order
	Base     string    // address base register for ld/st; "" otherwise
	Off      int64     // address offset for ld/st
	Target   string    // branch target label; "" otherwise
}

// String renders the instruction in the canonical trace spelling.
func (in Inst) String() string {
	switch {
	case in.Class == ClassBranch:
		return fmt.Sprintf("%s %s, %s, %s", in.Mnemonic, in.Srcs[0], in.Srcs[1], in.Target)
	case in.Mnemonic == "ld":
		return fmt.Sprintf("ld %s, %s", in.Dest, in.mem())
	case in.Mnemonic == "st":
		return fmt.Sprintf("st %s, %s", in.Srcs[0], in.mem())
	default:
		parts := make([]string, 0, 1+len(in.Srcs))
		parts = append(parts, in.Dest)
		for _, s := range in.Srcs {
			parts = append(parts, s.String())
		}
		return in.Mnemonic + " " + strings.Join(parts, ", ")
	}
}

func (in Inst) mem() string {
	switch {
	case in.Off > 0:
		return fmt.Sprintf("[%s+%d]", in.Base, in.Off)
	case in.Off < 0:
		return fmt.Sprintf("[%s%d]", in.Base, in.Off)
	default:
		return fmt.Sprintf("[%s]", in.Base)
	}
}

// DepClass classifies an inferred register or memory dependence.
type DepClass uint8

const (
	DepTrue DepClass = iota
	DepAnti
	DepOutput
	DepMem
)

func (c DepClass) String() string {
	switch c {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	default:
		return "mem"
	}
}

// RegDep is one inferred dependence between two body instructions of a
// region, in region-relative instruction indexes. Dist is the iteration
// distance: 0 within an iteration, 1 when the dependence wraps through
// the back-edge.
type RegDep struct {
	From, To int
	Dist     int
	Class    DepClass
	Reg      string // register (true/anti/output) or base register (mem)
}

// Region is one recovered loop: the instructions from its label through
// its backward branch, the dependence graph inferred over the body, and
// the body lifted to an ir loop. The closing branch is part of the region
// (it is the loop control the modulo schedule makes implicit) but is not
// lifted.
type Region struct {
	Label      string
	Start, End int // Insts[Start:End] is the body; Insts[End] the back branch
	Trip       int // trip directive value; 0 when unspecified
	Deps       []RegDep
	// Discharged counts the anti and output register dependences in Deps
	// that the lift drops: the queue register files rename every value at
	// write time, so WAR/WAW register hazards impose no schedule order —
	// exactly the renaming argument the paper builds the QRF on. True and
	// memory dependences are the only ones lifted.
	Discharged int
	Loop       *ir.Loop
}

// Program is a parsed trace: the full instruction stream, the recovered
// loop regions in program order, and (implicitly) the glue instructions
// between them.
type Program struct {
	Name    string
	Insts   []Inst
	Regions []*Region
}

// Glue returns the instructions outside every region, in program order:
// the inter-region setup and teardown code a whole-program schedule keeps
// sequential.
func (p *Program) Glue() []Inst {
	in := make([]bool, len(p.Insts))
	for _, r := range p.Regions {
		for i := r.Start; i <= r.End; i++ {
			in[i] = true
		}
	}
	var g []Inst
	for i, inst := range p.Insts {
		if !in[i] {
			g = append(g, inst)
		}
	}
	return g
}

// Body returns the region's body instructions (back branch excluded).
func (r *Region) Body(p *Program) []Inst {
	return p.Insts[r.Start:r.End]
}

// ParseString is Parse over an in-memory trace.
func ParseString(src string) (*Program, error) {
	return Parse(strings.NewReader(src))
}

// Parse reads a trace, recovers its loop regions and lifts each one to an
// ir loop. The returned Program is fully analyzed: every region carries
// its inferred dependence graph and lifted Loop.
func Parse(r io.Reader) (*Program, error) {
	p := &Program{Name: "trace"}
	labels := make(map[string]int)   // label -> index of the instruction it precedes
	written := make(map[string]bool) // registers defined so far, in program order
	var pendingLabel string
	var pendingLine int
	sawProg := false
	type tripRec struct{ idx, n, line int }
	var trips []tripRec

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("frontend: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}

		// Label line.
		if strings.HasSuffix(line, ":") && len(strings.Fields(line)) == 1 {
			name := strings.TrimSuffix(line, ":")
			if !validIdent(name) {
				return nil, fail("bad label %q", name)
			}
			if _, dup := labels[name]; dup {
				return nil, fail("duplicate label %q", name)
			}
			if pendingLabel != "" {
				return nil, fail("label %q collides with label %q on the same instruction", name, pendingLabel)
			}
			labels[name] = len(p.Insts)
			pendingLabel, pendingLine = name, lineNo
			continue
		}

		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			return nil, fail("malformed line %q", line)
		}
		switch fields[0] {
		case "prog":
			if len(fields) != 2 || !validIdent(fields[1]) {
				return nil, fail("prog wants one name operand")
			}
			if sawProg {
				return nil, fail("duplicate prog directive")
			}
			sawProg = true
			p.Name = fields[1]
			continue
		case "trip":
			if len(fields) != 2 {
				return nil, fail("trip wants one count operand")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fail("trip wants a positive count, got %q", fields[1])
			}
			trips = append(trips, tripRec{idx: len(p.Insts), n: n, line: lineNo})
			continue
		}

		inst, err := parseInst(fields)
		if err != nil {
			return nil, fail("%v", err)
		}
		inst.Line = lineNo
		inst.Label, pendingLabel = pendingLabel, ""

		// Defined-before-use: reads are checked before this instruction's
		// own write lands, so self-initialisation is rejected too.
		for _, reg := range inst.readRegs() {
			if !written[reg] {
				return nil, fail("register %s read before any write", reg)
			}
		}
		if inst.Dest != "" {
			written[inst.Dest] = true
		}

		if inst.Class == ClassBranch {
			start, ok := labels[inst.Target]
			if !ok {
				return nil, fail("branch to undefined label %q (forward branches are not supported)", inst.Target)
			}
			end := len(p.Insts) // index this branch will occupy
			if start == end {
				return nil, fail("empty loop region %q", inst.Target)
			}
			if last := lastRegion(p); last != nil && start <= last.End {
				return nil, fail("irreducible back-edge to %q: loop region overlaps region %q", inst.Target, last.Label)
			}
			p.Regions = append(p.Regions, &Region{Label: inst.Target, Start: start, End: end})
		}
		p.Insts = append(p.Insts, inst)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("frontend: %v", err)
	}
	if pendingLabel != "" {
		return nil, fmt.Errorf("frontend: line %d: label %q is not followed by an instruction", pendingLine, pendingLabel)
	}
	for _, tr := range trips {
		reg := regionAt(p, tr.idx)
		if reg == nil {
			return nil, fmt.Errorf("frontend: line %d: trip directive outside any loop region", tr.line)
		}
		reg.Trip = tr.n // last directive wins
	}
	for _, reg := range p.Regions {
		if err := liftRegion(p, reg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func lastRegion(p *Program) *Region {
	if len(p.Regions) == 0 {
		return nil
	}
	return p.Regions[len(p.Regions)-1]
}

func regionAt(p *Program, idx int) *Region {
	for _, r := range p.Regions {
		if r.Start <= idx && idx <= r.End {
			return r
		}
	}
	return nil
}

// readRegs returns the instruction's register reads in operand order,
// value operands first, then the address base — the order the lift uses
// for ir operand slots.
func (in Inst) readRegs() []string {
	var rs []string
	for _, s := range in.Srcs {
		if s.IsReg() {
			rs = append(rs, s.Reg)
		}
	}
	if in.Base != "" {
		rs = append(rs, in.Base)
	}
	return rs
}

func parseInst(fields []string) (Inst, error) {
	mnem := fields[0]
	ops := fields[1:]
	in := Inst{Mnemonic: mnem}
	need := func(n int, shape string) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %s", mnem, shape)
		}
		return nil
	}
	switch mnem {
	case "ld", "st":
		in.Class = ClassMem
		if err := need(2, "a register and a memory operand"); err != nil {
			return in, err
		}
		reg, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		if in.Base, in.Off, err = parseMem(ops[1]); err != nil {
			return in, err
		}
		if mnem == "ld" {
			in.Dest = reg
		} else {
			in.Srcs = []Operand{{Reg: reg}}
		}
	case "mov":
		in.Class = ClassALU
		if err := need(2, "a destination and one source"); err != nil {
			return in, err
		}
		dst, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		src, err := parseOperand(ops[1])
		if err != nil {
			return in, err
		}
		in.Dest, in.Srcs = dst, []Operand{src}
	case "add", "sub", "and", "or", "xor", "cmp", "mul", "div":
		in.Class = ClassALU
		if mnem == "mul" || mnem == "div" {
			in.Class = ClassMul
		}
		if err := need(3, "a destination and two sources"); err != nil {
			return in, err
		}
		dst, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		a, err := parseOperand(ops[1])
		if err != nil {
			return in, err
		}
		b, err := parseOperand(ops[2])
		if err != nil {
			return in, err
		}
		in.Dest, in.Srcs = dst, []Operand{a, b}
	case "bne", "beq", "blt", "bge":
		in.Class = ClassBranch
		if err := need(3, "two registers and a label"); err != nil {
			return in, err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		b, err := parseReg(ops[1])
		if err != nil {
			return in, err
		}
		if !validIdent(ops[2]) {
			return in, fmt.Errorf("bad label %q", ops[2])
		}
		in.Srcs = []Operand{{Reg: a}, {Reg: b}}
		in.Target = ops[2]
	default:
		return in, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	return in, nil
}

// parseReg accepts r0..r255 and returns the canonical spelling.
func parseReg(tok string) (string, error) {
	if len(tok) >= 2 && tok[0] == 'r' {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 && n <= 255 {
			return "r" + strconv.Itoa(n), nil
		}
	}
	return "", fmt.Errorf("bad register %q", tok)
}

func parseOperand(tok string) (Operand, error) {
	if reg, err := parseReg(tok); err == nil {
		return Operand{Reg: reg}, nil
	}
	if imm, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Operand{Imm: imm}, nil
	}
	return Operand{}, fmt.Errorf("bad operand %q", tok)
}

// parseMem accepts [rB], [rB+off] and [rB-off].
func parseMem(tok string) (base string, off int64, err error) {
	bad := fmt.Errorf("bad memory operand %q", tok)
	if len(tok) < 2 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return "", 0, bad
	}
	inner := tok[1 : len(tok)-1]
	regPart, offPart := inner, ""
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		regPart, offPart = inner[:i], inner[i:]
	}
	if base, err = parseReg(regPart); err != nil {
		return "", 0, bad
	}
	if offPart != "" {
		if off, err = strconv.ParseInt(strings.TrimPrefix(offPart, "+"), 10, 64); err != nil {
			return "", 0, bad
		}
	}
	return base, off, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
