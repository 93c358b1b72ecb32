package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// stringCodec round-trips string values byte-for-byte.
func stringCodec() Codec[string, string] {
	return StringKeyCodec(
		func(v string) ([]byte, error) { return []byte(v), nil },
		func(b []byte) (string, error) { return string(b), nil },
	)
}

func fillCache(c *Cache[string, string], n int) {
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		c.Do(k, func() string { return "val:" + k })
	}
}

// TestSnapshotRoundTrip saves a populated cache, loads it into a fresh one,
// and checks every entry survives byte-identically — and that re-saving the
// loaded cache reproduces the exact same file (the format is deterministic).
func TestSnapshotRoundTrip(t *testing.T) {
	src := New[string, string](Options{}, StringHash)
	fillCache(src, 37)

	var buf bytes.Buffer
	wrote, err := src.Save(&buf, stringCodec())
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if wrote != 37 {
		t.Fatalf("Save wrote %d entries, want 37", wrote)
	}

	dst := New[string, string](Options{}, StringHash)
	loaded, err := dst.Load(bytes.NewReader(buf.Bytes()), stringCodec())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if e := dst.Stats().Entries; loaded != 37 || e != 37 {
		t.Fatalf("Load inserted %d entries (Entries %d), want 37", loaded, e)
	}
	for i := 0; i < 37; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok := dst.Get(k)
		if !ok || v != "val:"+k {
			t.Fatalf("entry %q: got (%q, %t), want (%q, true)", k, v, ok, "val:"+k)
		}
	}

	// A loaded entry must serve as a hit, not recompute.
	hitsBefore := dst.Stats().Hits
	v := dst.Do("key-000", func() string {
		t.Fatal("Do recomputed a snapshot-loaded entry")
		return ""
	})
	if v != "val:key-000" {
		t.Fatalf("Do after Load returned %q", v)
	}
	if dst.Stats().Hits != hitsBefore+1 {
		t.Fatalf("Do after Load did not count a hit")
	}

	// Deterministic bytes: re-saving the loaded cache reproduces the file.
	var buf2 bytes.Buffer
	if _, err := dst.Save(&buf2, stringCodec()); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshot bytes differ after a round trip (%d vs %d bytes)", buf.Len(), buf2.Len())
	}
}

// TestSnapshotLoadSkipsExisting ensures a live entry wins over the snapshot
// copy of the same key.
func TestSnapshotLoadSkipsExisting(t *testing.T) {
	src := New[string, string](Options{}, StringHash)
	src.Do("k", func() string { return "from-snapshot" })
	var buf bytes.Buffer
	if _, err := src.Save(&buf, stringCodec()); err != nil {
		t.Fatal(err)
	}

	dst := New[string, string](Options{}, StringHash)
	dst.Do("k", func() string { return "live" })
	loaded, err := dst.Load(&buf, stringCodec())
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 0 {
		t.Fatalf("Load inserted %d entries over live keys, want 0", loaded)
	}
	if v, _ := dst.Get("k"); v != "live" {
		t.Fatalf("live entry overwritten: got %q", v)
	}
}

// TestSnapshotLoadRespectsBound checks that warm-starting a bounded cache
// never exceeds the bound (extra snapshot entries are dropped, not evicting
// anything).
func TestSnapshotLoadRespectsBound(t *testing.T) {
	src := New[string, string](Options{}, StringHash)
	fillCache(src, 64)
	var buf bytes.Buffer
	if _, err := src.Save(&buf, stringCodec()); err != nil {
		t.Fatal(err)
	}

	dst := New[string, string](Options{MaxEntries: 16}, StringHash)
	loaded, err := dst.Load(&buf, stringCodec())
	if err != nil {
		t.Fatal(err)
	}
	if e := dst.Stats().Entries; loaded > 16 || e > 16 {
		t.Fatalf("bounded cache loaded %d entries (Entries %d), bound 16", loaded, e)
	}
	if st := dst.Stats(); st.Evictions != 0 {
		t.Fatalf("Load evicted %d entries; it must drop, not evict", st.Evictions)
	}
}

// TestSnapshotRejectsCorrupt runs Load over a catalogue of malformed files;
// each must fail with ErrCorruptSnapshot, a message naming the problem, and
// zero entries inserted.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	src := New[string, string](Options{}, StringHash)
	fillCache(src, 8)
	var buf bytes.Buffer
	if _, err := src.Save(&buf, stringCodec()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 0xff
		return c
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error message
	}{
		{"empty", nil, "magic"},
		{"bad magic", flip(good, 0), "bad magic"},
		{"unknown version", flip(good, 4), "unknown version"},
		{"truncated header", good[:6], "version"},
		{"truncated mid-entry", good[:len(good)/2], ""},
		{"missing checksum", good[:len(good)-4], ""},
		{"flipped payload byte", flip(good, 20), "checksum mismatch"},
		{"flipped checksum", flip(good, len(good)-1), "checksum mismatch"},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAB), "trailing data"},
		{"huge length prefix", func() []byte {
			c := append([]byte(nil), good...)
			// First entry's key-length field sits right after the 4-byte
			// magic + 4-byte version + 8-byte count.
			c[16], c[17], c[18], c[19] = 0xff, 0xff, 0xff, 0x7f
			return c
		}(), "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := New[string, string](Options{}, StringHash)
			n, err := dst.Load(bytes.NewReader(tc.data), stringCodec())
			if err == nil {
				t.Fatalf("Load accepted a %s file", tc.name)
			}
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("error %v does not wrap ErrCorruptSnapshot", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if e := dst.Stats().Entries; n != 0 || e != 0 {
				t.Fatalf("corrupt load inserted %d entries (Entries %d)", n, e)
			}
		})
	}
}

// TestSnapshotSkipsInFlight: an entry whose compute is still running is not
// written (its value does not exist yet).
func TestSnapshotSkipsInFlight(t *testing.T) {
	c := New[string, string](Options{}, StringHash)
	c.Do("done", func() string { return "v" })

	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do("inflight", func() string {
		close(started)
		<-release
		return "late"
	})
	<-started
	var buf bytes.Buffer
	n, err := c.Save(&buf, stringCodec())
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Save wrote %d entries with one in flight, want 1", n)
	}
}
