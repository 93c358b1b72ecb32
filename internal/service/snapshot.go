package service

import (
	"bytes"
	"encoding/json"
	"io"

	"vliwq/internal/cache"
)

// Cache snapshot persistence for the service: SaveCache/LoadCache wrap the
// generic cache snapshot (internal/cache.Save/Load) with the service's
// codec — keys are the canonical request strings, values are the cached
// outcome rendered as JSON. vliwd's -cache-snapshot flag uses these to
// persist the compile cache on shutdown and warm-start it on boot, so a
// restarted backend serves its first repeated request as a hit.
//
// The on-disk value is wireOutcome as json.Marshal writes it, HTML escaped.
// An outcome holds its answer as WriteJSON's unescaped bytes, so saving
// escapes those bytes (json.HTMLEscape, the only difference between the two
// encodings) instead of decoding them, and loading decodes the response
// once and encodes it as compute would have.

// wireOutcome is the snapshot encoding of a cached outcome. Exactly one of
// Resp and Err is set, mirroring the in-memory invariant.
type wireOutcome struct {
	Resp *CompileResponse `json:"resp,omitempty"`
	Err  string           `json:"err,omitempty"`
}

func outcomeCodec() cache.Codec[string, outcome] {
	return cache.StringKeyCodec(
		func(oc outcome) ([]byte, error) {
			if oc.body == nil {
				return json.Marshal(wireOutcome{Err: oc.err})
			}
			var b bytes.Buffer
			b.WriteString(`{"resp":`)
			json.HTMLEscape(&b, oc.body[:len(oc.body)-1])
			b.WriteByte('}')
			return b.Bytes(), nil
		},
		func(b []byte) (outcome, error) {
			var w wireOutcome
			if err := json.Unmarshal(b, &w); err != nil {
				return outcome{}, err
			}
			oc := outcome{err: w.Err}
			if w.Resp != nil {
				oc.body = encode(w.Resp)
			}
			return oc, nil
		},
	)
}

// SaveCache writes every completed cache entry to w in the versioned
// snapshot format and returns how many entries it wrote.
func (s *Server) SaveCache(w io.Writer) (int, error) {
	return s.cache.Save(w, outcomeCodec())
}

// LoadCache warm-starts the compile cache from a snapshot written by
// SaveCache, returning how many entries it inserted. Corrupt or truncated
// snapshots fail with an error wrapping cache.ErrCorruptSnapshot and leave
// the cache as it was.
func (s *Server) LoadCache(r io.Reader) (int, error) {
	return s.cache.Load(r, outcomeCodec())
}
