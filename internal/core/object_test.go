package core

import (
	"bytes"
	"testing"

	"ditto/internal/loccache"
)

// inside reports whether part is a sub-slice of buf (or empty).
func inside(part, buf []byte) bool {
	if len(part) == 0 {
		return true
	}
	for off := 0; off+len(part) <= len(buf); off++ {
		if &buf[off] == &part[0] {
			return true
		}
	}
	return false
}

// FuzzDecodeObject fuzzes the validation of object images READ from
// memory that may have been freed and reused under the reader — what
// every key walk candidate and every speculative Get goes through
// (matchObject, getPlan.validHint): arbitrary bytes never panic, a
// decoded image's parts lie inside the buffer, and nothing whose key,
// incarnation stamp or tenant differs from the hint's validates.
func FuzzDecodeObject(f *testing.F) {
	key, val, ext := []byte("key-000001"), bytes.Repeat([]byte{7}, 40), []byte{1, 2, 3, 4}
	hint := loccache.Hint{Ver: 5<<32 | 9, Tenant: 3}
	img := encodeObjectInto(nil, key, val, ext, TenantID(hint.Tenant), 0, hint.Ver)
	f.Add(img)
	for _, n := range []int{0, 1, objHeader - 1, objHeader, objHeader + len(ext), len(img) - 1} {
		f.Add(img[:n])
	}
	f.Add(encodeObjectInto(nil, key, val, ext, 0, 0, 0)) // stamp zeroed by a free
	f.Add(encodeObjectInto(nil, key, val, ext, TenantID(hint.Tenant), 0, hint.Ver+1))
	f.Add(encodeObjectInto(nil, key, val, ext, TenantID(hint.Tenant)+1, 0, hint.Ver))
	f.Add(encodeObjectInto(nil, []byte("key-000002"), val, ext, TenantID(hint.Tenant), 0, hint.Ver))

	c := &Client{cl: &Cluster{}}
	f.Fuzz(func(t *testing.T, buf []byte) {
		dec, match := matchObject(buf, key)
		if !dec.ok && match {
			t.Fatal("an undecodable image matched")
		}
		if dec.ok && !(inside(dec.key, buf) && inside(dec.value, buf) && inside(dec.ext, buf)) {
			t.Fatalf("decoded parts escape the %d-byte buffer", len(buf))
		}
		if match && !bytes.Equal(dec.key, key) {
			t.Fatalf("matched an image of key %q", dec.key)
		}
		pl := getPlan{keyWalk: keyWalk{c: c, key: key}, hint: hint}
		if dec, ok := pl.validHint(buf); ok && (!bytes.Equal(dec.key, key) || dec.ver != hint.Ver || dec.tenant != TenantID(hint.Tenant)) {
			t.Fatalf("hint %+v validated an image of key %q ver %#x tenant %d",
				hint, dec.key, dec.ver, dec.tenant)
		}
	})
}
