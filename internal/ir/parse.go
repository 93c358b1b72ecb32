package ir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text loop format, used by cmd/vliwsched and the examples:
//
//	# comment
//	loop daxpy
//	trip 200
//	op a  load            # leaf load
//	op x  load
//	op m  mul a           # operands are names of earlier ops (flow, dist 0)
//	op s  add m x
//	op st store s
//	carried s m 1         # loop-carried flow dep, distance 1
//	mem st a 1            # memory ordering dep
//	order st st2 0        # generic ordering dep
//
// One loop per stream. Operand references create intra-iteration flow
// dependences in the listed order.

// Parse reads a loop in the text format from r.
func Parse(r io.Reader) (*Loop, error) {
	p := newParser(0)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := p.line(lineNo, sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ir: reading loop: %w", err)
	}
	return p.finish()
}

// ParseString parses a loop from a string. It accepts and rejects exactly
// what Parse does, with the same errors, but cuts lines and fields out of
// s in place instead of copying them through a bufio.Scanner — the loop
// and op names share s's memory. Every request the service and the
// gateway handle is parsed here. The Scanner's behaviour is kept: lines
// end at '\n', a line of bufio.MaxScanTokenSize bytes or more fails with
// bufio.ErrTooLong, and a trailing '\r' is whitespace to the field split
// anyway.
func ParseString(s string) (*Loop, error) {
	p := newParser(strings.Count(s, "\n") + 1)
	for lineNo := 1; s != ""; lineNo++ {
		line, rest, _ := strings.Cut(s, "\n")
		if len(line) >= bufio.MaxScanTokenSize {
			return nil, fmt.Errorf("ir: reading loop: %w", bufio.ErrTooLong)
		}
		if err := p.line(lineNo, line); err != nil {
			return nil, err
		}
		s = rest
	}
	return p.finish()
}

// parser builds one loop line by line.
type parser struct {
	l      *Loop
	byName map[string]*Op
	fields []string // the current line's fields, reused across lines
	ops    []Op     // block the next ops are carved from
	hint   int      // expected op and dep count; 0 when unknown
}

// maxParseHint caps the presizing hint, which a caller derives from the
// line count of untrusted input.
const maxParseHint = 1024

func newParser(hint int) *parser {
	hint = min(hint, maxParseHint)
	return &parser{l: New(""), byName: make(map[string]*Op, hint), hint: hint}
}

// addOp is Loop.AddOp with the ops carved out of blocks of up to
// maxParseHint, so a loop's ops cost a few allocations instead of one
// each.
func (p *parser) addOp(kind OpKind, name string) *Op {
	l := p.l
	if l.Ops == nil && p.hint > 0 {
		l.Ops = make([]*Op, 0, p.hint)
	}
	if len(p.ops) == cap(p.ops) {
		p.ops = make([]Op, 0, min(max(p.hint, 2*cap(p.ops), 8), maxParseHint))
	}
	p.ops = append(p.ops, Op{ID: len(l.Ops), Kind: kind, Name: name, Orig: -1})
	op := &p.ops[len(p.ops)-1]
	l.Ops = append(l.Ops, op)
	return op
}

func (p *parser) addDep(d Dep) {
	if p.l.Deps == nil && p.hint > 0 {
		p.l.Deps = make([]Dep, 0, 2*p.hint)
	}
	p.l.AddDep(d)
}

func (p *parser) fail(lineNo int, format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

// line parses one line (without its '\n').
func (p *parser) line(lineNo int, line string) error {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	p.fields = appendFields(p.fields[:0], line)
	fields := p.fields
	if len(fields) == 0 {
		return nil
	}
	l := p.l
	switch fields[0] {
	case "loop":
		if len(fields) != 2 {
			return p.fail(lineNo, "loop needs exactly one name")
		}
		l.Name = fields[1]
	case "trip":
		if len(fields) != 2 {
			return p.fail(lineNo, "trip needs exactly one count")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return p.fail(lineNo, "bad trip count %q", fields[1])
		}
		l.Trip = n
	case "op":
		if len(fields) < 3 {
			return p.fail(lineNo, "op needs a name and a kind")
		}
		name := fields[1]
		if _, dup := p.byName[name]; dup {
			return p.fail(lineNo, "duplicate op name %q", name)
		}
		kind, ok := parseKind(fields[2])
		if !ok {
			return p.fail(lineNo, "unknown op kind %q", fields[2])
		}
		op := p.addOp(kind, name)
		p.byName[name] = op
		for _, operand := range fields[3:] {
			src, ok := p.byName[operand]
			if !ok {
				return p.fail(lineNo, "unknown operand %q", operand)
			}
			p.addDep(Dep{From: src.ID, To: op.ID, Kind: Flow})
		}
	case "carried", "mem", "order":
		if len(fields) != 4 {
			return p.fail(lineNo, "%s needs <from> <to> <dist>", fields[0])
		}
		from, ok := p.byName[fields[1]]
		if !ok {
			return p.fail(lineNo, "unknown op %q", fields[1])
		}
		to, ok := p.byName[fields[2]]
		if !ok {
			return p.fail(lineNo, "unknown op %q", fields[2])
		}
		dist, err := strconv.Atoi(fields[3])
		if err != nil || dist < 0 {
			return p.fail(lineNo, "bad distance %q", fields[3])
		}
		kind := Flow
		switch fields[0] {
		case "mem":
			kind = Mem
		case "order":
			kind = Order
		}
		if kind == Flow && dist == 0 {
			return p.fail(lineNo, "carried distance must be >= 1 (use op operands for dist 0)")
		}
		p.addDep(Dep{From: from.ID, To: to.ID, Dist: dist, Kind: kind})
	default:
		return p.fail(lineNo, "unknown directive %q", fields[0])
	}
	return nil
}

// finish validates the parsed loop.
func (p *parser) finish() (*Loop, error) {
	if err := p.l.Validate(); err != nil {
		return nil, err
	}
	return p.l, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of s to dst: strings.Fields, splitting
// around runs of unicode.IsSpace (invalid UTF-8 decodes as U+FFFD, which
// is not a space), without allocating the result slice.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			c, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(c)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func parseKind(s string) (OpKind, bool) {
	switch s {
	case "load":
		return KLoad, true
	case "store":
		return KStore, true
	case "add", "sub", "alu", "cmp":
		return KAdd, true
	case "mul":
		return KMul, true
	case "div":
		return KDiv, true
	case "copy":
		return KCopy, true
	case "move":
		return KMove, true
	}
	return KInvalid, false
}

// Format writes the loop back in the text format. Flow dependences with
// distance zero become operand lists; everything else becomes explicit
// directives. Ops without names are given op<ID> names.
//
// Ops are written in ID order when that puts every zero-distance flow
// producer before its consumers, as it does in every loop that was
// parsed, generated, unrolled or lifted from a trace, so their text keeps
// its spelling. Otherwise, as after copy insertion, which appends each
// copy after the consumers it feeds, an op's zero-distance flow producers
// not yet written are written just before it, so the text parses back.
func Format(w io.Writer, l *Loop) error {
	bw := bufio.NewWriter(w)
	name := func(op *Op) string {
		if op.Name != "" {
			return op.Name
		}
		return fmt.Sprintf("op%d", op.ID)
	}
	fmt.Fprintf(bw, "loop %s\n", l.Name)
	if l.Trip > 0 {
		fmt.Fprintf(bw, "trip %d\n", l.Trip)
	}
	var in DepIndex
	l.IndexDeps(&in, FlowDeps, false)
	// written is set on entry, so a zero-distance cycle, which Validate
	// rejects, ends the recursion instead of looping.
	written := make([]bool, len(l.Ops))
	var write func(id int)
	write = func(id int) {
		written[id] = true
		for _, e := range in.At(id) {
			if d := &l.Deps[e]; d.Dist == 0 && !written[d.From] {
				write(d.From)
			}
		}
		op := l.Ops[id]
		fmt.Fprintf(bw, "op %s %s", name(op), op.Kind)
		for _, e := range in.At(id) {
			if d := &l.Deps[e]; d.Dist == 0 {
				fmt.Fprintf(bw, " %s", name(l.Ops[d.From]))
			}
		}
		fmt.Fprintln(bw)
	}
	for id := range l.Ops {
		if !written[id] {
			write(id)
		}
	}
	for _, d := range l.Deps {
		switch {
		case d.Kind == Flow && d.Dist > 0:
			fmt.Fprintf(bw, "carried %s %s %d\n", name(l.Ops[d.From]), name(l.Ops[d.To]), d.Dist)
		case d.Kind == Mem:
			fmt.Fprintf(bw, "mem %s %s %d\n", name(l.Ops[d.From]), name(l.Ops[d.To]), d.Dist)
		case d.Kind == Order:
			fmt.Fprintf(bw, "order %s %s %d\n", name(l.Ops[d.From]), name(l.Ops[d.To]), d.Dist)
		}
	}
	return bw.Flush()
}

// FormatString returns the loop in the text format.
func FormatString(l *Loop) string {
	var b strings.Builder
	if err := Format(&b, l); err != nil {
		return ""
	}
	return b.String()
}
