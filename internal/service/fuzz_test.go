package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"vliwq"
)

// FuzzDecodeCompileRequest fuzzes the service's trust boundary for a
// /compile body: the strict JSON decode the handler runs, then
// vliwq.Prepare. Neither may panic on any body. A body that decodes must
// prepare the same way twice (Err, Canonical and StructuralKey agree), a
// request Prepare accepts must map onto pipeline Options, and preparing
// the normalized request again (what the SLO ladder does when it lowers
// the effort) must not change its key. Seeds are checked in under
// testdata/fuzz; nightly fuzz.yml runs this target.
func FuzzDecodeCompileRequest(f *testing.F) {
	var s Server
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
		var req CompileRequest
		if err := s.decode(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		a, b := vliwq.Prepare(req), vliwq.Prepare(req)
		if (a.Err() == nil) != (b.Err() == nil) || a.Err() != nil && a.Err().Error() != b.Err().Error() {
			t.Fatalf("Prepare errors disagree: %v vs %v", a.Err(), b.Err())
		}
		if a.Canonical() != b.Canonical() {
			t.Fatalf("Canonical disagrees: %q vs %q", a.Canonical(), b.Canonical())
		}
		if a.StructuralKey() != b.StructuralKey() {
			t.Fatalf("StructuralKey disagrees: %q vs %q", a.StructuralKey(), b.StructuralKey())
		}
		if a.Err() != nil {
			return
		}
		if _, err := a.Options(); err != nil {
			t.Fatalf("Options failed on a request Prepare accepted: %v", err)
		}
		again := vliwq.Prepare(a.Request())
		if again.Err() != nil || again.Canonical() != a.Canonical() {
			t.Fatalf("re-preparing the normalized request changed it: %v, %q vs %q",
				again.Err(), again.Canonical(), a.Canonical())
		}
	})
}
