package core

import (
	"bytes"
	"encoding/binary"
)

// Object block layout in the heap. The extension metadata lives directly
// after the fixed header so eviction can fetch slots' extensions with a
// single fixed-size READ per candidate without knowing key lengths
// (§4.4, "Metadata extensions"):
//
//	offset 0  keyLen (2 B) | valLen (4 B) | extLen (2 B)
//	offset 8  expiry (8 B, absolute virtual ns; 0 = no lease)
//	offset 16 tenant (1 B) | ver (6 B: client 2 B, seq 4 B) | reserved (1 B)
//	offset 24 extension metadata (extLen bytes, experts' segments in order)
//	then      key, then value
//
// The expiry and tenant fields generalize internal/fairness's one-byte
// value-prefix owner tag into the header proper: they are stamped at
// construction (Set) and never rewritten in place, so the read path
// stays zero-copy and a lease never needs a second CAS to install.
//
// ver is the image's incarnation stamp: a 48-bit value unique across
// every object image ever staged in the cluster (a cluster-assigned
// client id concatenated with the client's staging sequence number —
// deterministic, no RNG draw). It is what makes one-RTT speculative
// Gets sound: a location-cache hint remembers the stamp of the image it
// observed, and a speculative READ is a hit only when the block still
// carries EXACTLY that stamp. A reused block carries a different stamp
// (every staging is unique, including CAS-losing stagings that were
// never published), and a freed-but-not-yet-reused block has its stamp
// cleared by the freeing client (releaseBlock in plan.go) — so a
// matching stamp proves the block still holds the same published image
// the hint was built from. ver 0 never validates.
const objHeader = 24

const (
	objExpiryOff = 8  // expiry stamp within the header
	objTenantOff = 16 // tenant tag within the header
	objVerOff    = 17 // incarnation stamp within the header (6 B)
)

// objBytes returns the exact byte size of an encoded object.
func objBytes(keyLen, valLen, extLen int) int {
	return objHeader + extLen + keyLen + valLen
}

// encodeObjectInto serializes an object block into buf (reused when it
// has capacity, so pooled set plans stage without allocating); every
// byte of the image is written, so a recycled buffer needs no clearing.
func encodeObjectInto(buf, key, value, ext []byte, tenant TenantID, expiry int64, ver uint64) []byte {
	buf = grow(buf, objBytes(len(key), len(value), len(ext)))
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[2:], uint32(len(value)))
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(ext)))
	binary.LittleEndian.PutUint64(buf[objExpiryOff:], uint64(expiry))
	buf[objTenantOff] = byte(tenant)
	binary.LittleEndian.PutUint16(buf[objVerOff:], uint16(ver>>32))
	binary.LittleEndian.PutUint32(buf[objVerOff+2:], uint32(ver))
	buf[objHeader-1] = 0
	copy(buf[objHeader:], ext)
	copy(buf[objHeader+len(ext):], key)
	copy(buf[objHeader+len(ext)+len(key):], value)
	return buf
}

// decodedObject is a parsed object block.
type decodedObject struct {
	key    []byte
	value  []byte
	ext    []byte
	tenant TenantID
	expiry int64  // absolute virtual ns; 0 = no lease
	ver    uint64 // incarnation stamp; 0 = cleared/freed or pre-stamp image
	ok     bool
}

// expired reports whether the object's lease (if any) has lapsed at
// virtual time now.
func (d *decodedObject) expired(now int64) bool {
	return d.expiry != 0 && d.expiry <= now
}

// decodeObject parses an object block image; ok=false when the image is
// malformed (e.g. a stale pointer led us to reused memory).
func decodeObject(buf []byte) decodedObject {
	if len(buf) < objHeader {
		return decodedObject{}
	}
	kl := int(binary.LittleEndian.Uint16(buf[0:]))
	vl := int(binary.LittleEndian.Uint32(buf[2:]))
	el := int(binary.LittleEndian.Uint16(buf[6:]))
	if objHeader+el+kl+vl > len(buf) {
		return decodedObject{}
	}
	return decodedObject{
		ext:    buf[objHeader : objHeader+el],
		key:    buf[objHeader+el : objHeader+el+kl],
		value:  buf[objHeader+el+kl : objHeader+el+kl+vl],
		tenant: TenantID(buf[objTenantOff]),
		expiry: int64(binary.LittleEndian.Uint64(buf[objExpiryOff:])),
		ver: uint64(binary.LittleEndian.Uint16(buf[objVerOff:]))<<32 |
			uint64(binary.LittleEndian.Uint32(buf[objVerOff+2:])),
		ok: true,
	}
}

// matchObject parses a READ object image and reports whether it is a
// well-formed image of key — THE match test of every read that lands on
// memory a slot or hint pointed at, which a concurrent free may have
// handed to another object, or to garbage, in the meantime: the key
// walk's candidates and the speculative Get's hinted block.
func matchObject(buf, key []byte) (decodedObject, bool) {
	dec := decodeObject(buf)
	return dec, dec.ok && bytes.Equal(dec.key, key)
}
