package cache

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshot feeds arbitrary bytes to Load, the reader vliwd runs on its
// snapshot file at boot. Load either succeeds or returns an error wrapping
// ErrCorruptSnapshot with nothing inserted; it never panics, and a bounded
// cache never goes past its cap. A successful load into the bounded cache
// keeps as many entries as it has room for: the file's distinct keys, as
// an unbounded cache counts them, up to the cap.
func FuzzSnapshot(f *testing.F) {
	src := New[string, string](Options{}, StringHash)
	fillCache(src, 2)
	var buf bytes.Buffer
	if _, err := src.Save(&buf, stringCodec()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 1
		bounded := New[string, string](Options{MaxEntries: capacity}, StringHash)
		n, err := bounded.Load(bytes.NewReader(data), stringCodec())
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("Load error %v does not wrap ErrCorruptSnapshot", err)
			}
			if e := bounded.Stats().Entries; n != 0 || e != 0 {
				t.Fatalf("failed Load inserted %d entries (Entries %d)", n, e)
			}
			return
		}
		if e := bounded.Stats().Entries; int64(n) != e || n > capacity {
			t.Fatalf("Load reported %d entries, Entries %d, cap %d", n, e, capacity)
		}
		unbounded := New[string, string](Options{}, StringHash)
		all, err := unbounded.Load(bytes.NewReader(data), stringCodec())
		if err != nil {
			t.Fatalf("second Load of accepted bytes failed: %v", err)
		}
		if want := min(all, capacity); n != want {
			t.Fatalf("bounded Load kept %d of %d distinct entries, want %d", n, all, want)
		}
	})
}
