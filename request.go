package vliwq

import (
	"errors"
	"fmt"
)

// Request is the canonical compilation request: the loop plus every knob
// the pipeline accepts, in one flat, JSON-serializable value. It is THE
// request encoding across the whole system — the library's Compiler
// sessions consume it, the vliwd service's /compile and /batch bodies ARE
// this type (service.CompileRequest is an alias), and the vliwgate fleet
// routes it by its StructuralKey() and coalesces it by its Canonical().
// Every consumer that keys or compiles it works on one Prepared instance,
// which normalizes, keys and parses each request once. A request built
// from a parsed loop and library Options comes from NewRequest.
//
// The zero values of every optional field mean "the default": an empty
// Machine is "single:6", an empty CopyShape is "tree", an empty Effort is
// "fast". Normalize fills those in; Canonical and StructuralKey do so
// implicitly, which is what guarantees that two spellings of the same
// behaviour — {"loop": L} and {"loop": L, "machine": "single:6"} — share
// one cache entry and one gateway shard.
type Request struct {
	// Loop is the loop body in the text format internal/ir documents
	// (op/carried/mem/order directives). Required.
	Loop string `json:"loop"`
	// Machine is the "single:<n>" / "clustered:<n>" spec ParseMachine
	// accepts; empty means "single:6".
	Machine string `json:"machine,omitempty"`
	// Unroll enables automatic loop unrolling.
	Unroll bool `json:"unroll,omitempty"`
	// UnrollFactor forces a specific factor (2..64) instead of the
	// automatic choice, overriding Unroll; 0 and 1 both mean "no forced
	// factor" (Normalize folds 1 to 0). The cap exists because the factor
	// multiplies the loop body and Request is the service's trust
	// boundary.
	UnrollFactor int `json:"unroll_factor,omitempty"`
	// CopyShape selects the copy-insertion fanout topology: "tree"
	// (default) or "chain".
	CopyShape string `json:"copy_shape,omitempty"`
	// AllowMoves enables the move-operation extension on clustered
	// machines.
	AllowMoves bool `json:"allow_moves,omitempty"`
	// CommLatency is the extra inter-cluster delivery latency in cycles.
	CommLatency int `json:"comm_latency,omitempty"`
	// SkipVerify skips the simulator-based verification stage.
	SkipVerify bool `json:"skip_verify,omitempty"`
	// Effort selects the scheduler's tier: "fast" (default), "balanced",
	// "exhaustive", or "optimal" (exhaustive plus a branch-and-bound
	// optimality certificate in the response's bound field).
	Effort string `json:"effort,omitempty"`
}

// Normalize validates the request and fills every defaultable field with
// its canonical spelling in place: Machine "" becomes "single:6",
// CopyShape "" becomes "tree", Effort is canonicalized through
// ParseEffort. The error, if any, is a request-shape problem the caller
// should surface to the client (the service answers HTTP 400).
func (r *Request) Normalize() error {
	_, _, err := r.normalize()
	return err
}

// normalize is Normalize, also returning the parsed machine and effort so
// Prepared need not parse them again.
func (r *Request) normalize() (Machine, Effort, error) {
	spec := r.Machine
	if spec == "" {
		spec = "single:6"
	}
	m, err := ParseMachine(spec)
	if err != nil {
		return Machine{}, 0, err
	}
	// Re-render through Spec(): strconv accepts non-canonical digits
	// ("single:06", "single:+6"), and those spellings must share the
	// canonical key of the machine they denote.
	r.Machine = m.Spec()
	if r.CommLatency < 0 {
		return Machine{}, 0, fmt.Errorf("negative comm_latency %d", r.CommLatency)
	}
	// The unroll factor multiplies the loop body; unchecked it lets a
	// four-op request allocate hundreds of millions of ops. The library's
	// automatic choice caps at 8, so 64 is generous for a forced factor.
	if r.UnrollFactor < 0 || r.UnrollFactor > 64 {
		return Machine{}, 0, fmt.Errorf("unroll_factor %d out of range [0, 64]", r.UnrollFactor)
	}
	// Fold the equivalent unroll spellings onto one encoding: a forced
	// factor overrides the automatic flag in the pipeline (so the flag is
	// dead weight next to it), and factor 1 behaves exactly like factor 0.
	if r.UnrollFactor == 1 {
		r.UnrollFactor = 0
	}
	if r.UnrollFactor >= 2 {
		r.Unroll = false
	}
	switch r.CopyShape {
	case "":
		r.CopyShape = "tree"
	case "tree", "chain":
	default:
		return Machine{}, 0, fmt.Errorf("unknown copy_shape %q (want tree or chain)", r.CopyShape)
	}
	eff, err := ParseEffort(r.Effort)
	if err != nil {
		return Machine{}, 0, err
	}
	r.Effort = eff.String()
	if r.Loop == "" {
		return Machine{}, 0, errors.New("empty loop")
	}
	return m, eff, nil
}

// Canonical returns the deterministic canonical encoding of the request:
// the exact key of every compile cache and the vliwgate gateway's
// coalescing key (the gateway routes on StructuralKey). It normalizes a
// copy first, so behaviourally identical spellings encode identically;
// Prepared.Canonical is the implementation. The grammar (DESIGN.md §10) is
//
//	"rq1;" "m=" machine ";u=" bool ";f=" int ";s=" shape
//	";mv=" bool ";cl=" int ";sv=" bool ";e=" effort ";" loop-text
//
// with bools as "true"/"false" and the loop text appended verbatim (it is
// last and unescaped; every fixed-width field precedes it, so the encoding
// is unambiguous). A request Normalize rejects still encodes
// deterministically — on its raw field values — and collides only with
// requests that are rejected identically downstream.
func (r Request) Canonical() string { return Prepare(r).Canonical() }

// Options maps the request onto the library pipeline's Options, without
// mutating the receiver. The error is the same request-shape error
// Normalize reports.
func (r Request) Options() (Options, error) { return Prepare(r).Options() }

// NewRequest renders a parsed loop plus library Options into the canonical
// Request: the loop through FormatLoop, the machine through Machine.Spec.
// Only machines built by SingleCluster/Clustered/ParseMachine have a spec,
// so hand-assembled Configs with custom cluster mixes do not survive the
// trip.
func NewRequest(l *Loop, opts Options) Request {
	m := opts.Machine
	if m.NumClusters() == 0 {
		m = SingleCluster(6)
	}
	return Request{
		Loop:         FormatLoop(l),
		Machine:      m.Spec(),
		Unroll:       opts.Unroll,
		UnrollFactor: opts.UnrollFactor,
		CopyShape:    opts.CopyShape.String(),
		AllowMoves:   m.AllowMoves,
		CommLatency:  m.CommLatency,
		SkipVerify:   opts.SkipVerify,
		Effort:       opts.Effort.String(),
	}
}
