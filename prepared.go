package vliwq

import (
	"strconv"

	"vliwq/internal/copyins"
	"vliwq/internal/ir"
)

// Prepared is one request made ready for every consumer that keys,
// routes or compiles it: normalized once, its Canonical and StructuralKey
// rendered at most once, and its loop parsed at most once, lazily — a
// request answered from an exact-key cache never parses. It is the one
// canonical instance of a request (DESIGN.md §10): the vliwgate gateway
// routes and coalesces on its keys, and the vliwd service carries it from
// decode to compile, where CompileContext compiles the loop Loop parsed.
// Request.Canonical, StructuralKey and Options are thin wrappers over it.
//
// A Prepared lives for one request; nothing is memoized across requests.
// It is not safe for concurrent use. Build one with Prepare.
type Prepared struct {
	req     Request // normalized; on error, as far as Normalize got
	err     error   // Normalize's verdict
	machine Machine // the normalized machine, when err == nil
	effort  Effort

	canon, skey string // memoized keys ("" until first asked)
	loop        *Loop
	loopErr     error
	parsed      bool
}

// Prepare normalizes req once. A request Normalize rejects still prepares:
// Err reports the rejection, and the keys encode the request as far as
// normalization got, exactly as Request.Canonical always has.
func Prepare(req Request) *Prepared {
	p := &Prepared{req: req}
	p.machine, p.effort, p.err = p.req.normalize()
	return p
}

// Request returns the normalized request (as far as normalization got
// when Err is non-nil).
func (p *Prepared) Request() Request { return p.req }

// Err returns Normalize's error for the request: a request-shape problem
// the caller surfaces to the client (the service answers HTTP 400).
func (p *Prepared) Err() error { return p.err }

// Canonical returns Request.Canonical's key: the knobs spelled canonically
// and then the loop text verbatim. It is the exact cache key of every
// compile cache and the gateway's coalescing key.
func (p *Prepared) Canonical() string {
	if p.canon == "" {
		b := make([]byte, 0, len(p.req.Loop)+96)
		b = p.appendKnobs(b, "rq1;")
		b = append(b, p.req.Loop...)
		p.canon = string(b)
	}
	return p.canon
}

// StructuralKey returns Request.StructuralKey's key: the knobs spelled
// canonically and then the ir.Fingerprint of the parsed loop. A request
// that fails Normalize or whose loop fails to parse keys on Canonical
// instead. It is the structural cache key and the gateway's routing key.
func (p *Prepared) StructuralKey() string {
	if p.skey == "" {
		p.skey = p.structuralKey()
	}
	return p.skey
}

func (p *Prepared) structuralKey() string {
	if p.err != nil {
		return p.Canonical()
	}
	l, err := p.Loop()
	if err != nil {
		return p.Canonical()
	}
	b := make([]byte, 0, 96+2*32)
	b = p.appendKnobs(b, "sq1;")
	b = append(b, "fp="...)
	b = append(b, ir.Fingerprint(l)...)
	return string(b)
}

// appendKnobs appends the key grammar's knob prefix (DESIGN.md §10):
//
//	tag "m=" machine ";u=" bool ";f=" int ";s=" shape
//	";mv=" bool ";cl=" int ";sv=" bool ";e=" effort ";"
func (p *Prepared) appendKnobs(b []byte, tag string) []byte {
	r := &p.req
	b = append(b, tag...)
	b = append(b, "m="...)
	b = append(b, r.Machine...)
	b = append(b, ";u="...)
	b = strconv.AppendBool(b, r.Unroll)
	b = append(b, ";f="...)
	b = strconv.AppendInt(b, int64(r.UnrollFactor), 10)
	b = append(b, ";s="...)
	b = append(b, r.CopyShape...)
	b = append(b, ";mv="...)
	b = strconv.AppendBool(b, r.AllowMoves)
	b = append(b, ";cl="...)
	b = strconv.AppendInt(b, int64(r.CommLatency), 10)
	b = append(b, ";sv="...)
	b = strconv.AppendBool(b, r.SkipVerify)
	b = append(b, ";e="...)
	b = append(b, r.Effort...)
	return append(b, ';')
}

// Loop parses the request's loop on first use and returns the same loop
// (or error) on every later call. The loop is shared: callers treat it as
// read-only, as the pipeline does.
func (p *Prepared) Loop() (*Loop, error) {
	if !p.parsed {
		p.loop, p.loopErr = ParseLoop(p.req.Loop)
		p.parsed = true
	}
	return p.loop, p.loopErr
}

// Options maps the request onto the library pipeline's Options. The error
// is the same request-shape error Normalize reports.
func (p *Prepared) Options() (Options, error) {
	if p.err != nil {
		return Options{}, p.err
	}
	m := p.machine
	m.AllowMoves = p.req.AllowMoves
	m.CommLatency = p.req.CommLatency
	opts := Options{
		Machine:      m,
		Unroll:       p.req.Unroll,
		UnrollFactor: p.req.UnrollFactor,
		SkipVerify:   p.req.SkipVerify,
		Effort:       p.effort,
	}
	if p.req.CopyShape == "chain" {
		opts.CopyShape = copyins.Chain
	}
	return opts, nil
}
