package cap

import "math/bits"

// The capability encoding is the 128-bit compressed one the paper
// benchmarks ("as its lower overheads make it a more realistic candidate
// for commercial adoption"). It follows the CHERI-Concentrate recipe:
// bounds are expressed as mw-bit mantissas scaled by 2^E, so
//
//   - lengths up to (2^mw - 2^(mw-3)) bytes are exactly representable with
//     E = 0 (byte-granular bounds for small objects);
//   - larger regions require base and top aligned to 2^E, forcing
//     allocators to pad ("Compression exploits commonalities ... but
//     requires that large spans are aligned and sized at larger than byte
//     granularity", paper §2 fn. 2);
//   - the cursor may roam a slack of 2^(mw-3) scaled units beyond either
//     bound (the representable window); moving it further clears the tag.
const (
	// Bytes is the in-memory size of one capability: the pointer size
	// under CheriABI, the tag granule of physical memory, and what drives
	// the purecap cache-footprint overhead in Fig. 4.
	Bytes = 16
	// mw is the mantissa width of the compressed bounds.
	mw = 14
)

// exponent returns the smallest exponent E at which a region of the given
// length is representable: length in scaled units must leave 1/8 headroom
// in the mw-bit mantissa so the representable window exists.
//
// Closed form: a length above the limit has n ≥ mw significant bits, so
// length>>(n-mw) is an mw-bit mantissa. It fits unless its top three bits
// are all set (the limit is 7·2^(mw-3)), in which case one more shift
// does; one shift fewer leaves mw+1 bits, which never fits.
func exponent(length uint64) uint {
	const limit = 1<<mw - 1<<(mw-3)
	if length <= limit {
		return 0
	}
	e := uint(bits.Len64(length)) - mw
	if length>>e > limit {
		e++
	}
	return e
}

// RepresentableLength returns length rounded up to the next representable
// capability length (the CRRL instruction). Allocators use this to pad
// requests so SetBounds yields exact bounds.
func RepresentableLength(length uint64) uint64 {
	e := exponent(length)
	if e == 0 {
		return length
	}
	mask := (uint64(1) << e) - 1
	r := (length + mask) &^ mask
	// Rounding up may push the length past the limit for this exponent.
	if exponent(r) != e {
		e = exponent(r)
		mask = (uint64(1) << e) - 1
		r = (length + mask) &^ mask
	}
	return r
}

// RepresentableAlignmentMask returns the mask a base address must be
// aligned with for a region of the given length to have exact bounds (the
// CRAM instruction).
func RepresentableAlignmentMask(length uint64) uint64 {
	return ^((uint64(1) << exponent(length)) - 1)
}

// representable reports whether bounds [base, base+length) are exactly
// encodable.
func representable(base, length uint64) bool {
	e := exponent(length)
	mask := (uint64(1) << e) - 1
	return base&mask == 0 && length&mask == 0
}

// cursorOK reports whether addr is inside the representable window of a
// capability with the given bounds: [base - slack, top + slack) where
// slack is 1/8 of the mantissa span. Outside the window the encoding can
// no longer recover the bounds from the address, so the tag is cleared.
func cursorOK(base, length, addr uint64) bool {
	e := exponent(length)
	slack := uint64(1) << (e + mw - 3)
	lo := base - slack
	if lo > base { // underflow: window clamps at 0
		lo = 0
	}
	hi := base + length + slack
	if hi < base+length { // overflow: window clamps at 2^64-1
		hi = ^uint64(0)
	}
	return addr >= lo && addr < hi
}

// SetBounds derives from c a capability whose bounds are the smallest
// representable region containing [addr, addr+length), with the cursor at
// addr. It fails with FaultLength if even the *requested* region exceeds
// c's bounds, and with FaultLength if rounding would exceed them (strict
// monotonicity: a derived capability never grants more than its parent).
func SetBounds(c Capability, addr, length uint64) (Capability, error) {
	if !c.tag {
		return Null(), fault(FaultTag, c, addr, length)
	}
	if c.Sealed() {
		return Null(), fault(FaultSeal, c, addr, length)
	}
	if addr < c.base || addr-c.base > c.len || length > c.len-(addr-c.base) {
		return Null(), fault(FaultLength, c, addr, length)
	}
	e := exponent(length)
	mask := (uint64(1) << e) - 1
	newBase := addr &^ mask
	newTop := (addr + length + mask) &^ mask
	if newBase < c.base || newTop > c.base+c.len {
		return Null(), fault(FaultLength, c, addr, length)
	}
	c.base = newBase
	c.len = newTop - newBase
	c.addr = addr
	return c, nil
}

// SetBoundsExact is SetBounds but fails with FaultRepresentable unless the
// requested bounds are exactly representable (the CSetBoundsExact
// instruction).
func SetBoundsExact(c Capability, addr, length uint64) (Capability, error) {
	if !representable(addr, length) {
		return Null(), fault(FaultRepresentable, c, addr, length)
	}
	out, err := SetBounds(c, addr, length)
	if err != nil {
		return out, err
	}
	if out.base != addr || out.len != length {
		return Null(), fault(FaultRepresentable, c, addr, length)
	}
	return out, nil
}

// SetAddr returns c with the cursor set to addr. If addr leaves the
// representable window the result keeps the address but loses the tag
// (and, as in real implementations, its bounds become unusable — we model
// that by zeroing them, since an untagged capability's bounds are never
// consulted).
func SetAddr(c Capability, addr uint64) Capability {
	if c.Sealed() && c.tag {
		c.tag = false
	}
	if c.tag && !cursorOK(c.base, c.len, addr) {
		return NullWithAddr(addr)
	}
	c.addr = addr
	return c
}

// IncAddr returns c with the cursor advanced by delta (pointer arithmetic:
// "arithmetic on the address contained in the architectural capability,
// leaving its bounds and permissions unchanged").
func IncAddr(c Capability, delta int64) Capability {
	return SetAddr(c, c.addr+uint64(delta))
}

// IncAddrP sets *dst to IncAddr(*src, delta) through pointers (see
// SetAddrP).
func IncAddrP(dst, src *Capability, delta int64) {
	SetAddrP(dst, src, src.addr+uint64(delta))
}

// SetAddrP sets *dst to SetAddr(*src, addr) through pointers, for the
// threaded engine's inline CIncOffset and CJAL, which keep
// capability-typed values out of its loop.
//
// It takes an exact shortcut for the common cases: it copies src with the
// new cursor, which is SetAddr's result unless src is tagged and either
// sealed (SetAddr clears the tag) or given a cursor outside [base, top).
// An untagged capability just takes the cursor. A tagged, unsealed one
// whose cursor stays in [base, top) keeps its tag and its bounds: the
// representable window [base-slack, top+slack) contains the bounds (slack
// is at least 1, and the window's clamp at 2^64-1 is still at or above
// top, which addr stays strictly below), so cursorOK holds and SetAddr
// would change nothing but the cursor. Every other case goes through
// SetAddr, the one definition of the rule, whose result does not depend
// on the old cursor.
func SetAddrP(dst, src *Capability, addr uint64) {
	setAddrP(dst, src, addr, setAddr)
}

// setAddrP is SetAddrP with its general case passed in as general. The
// inliner prices a call through a parameter at 17 rather than the 57 of
// a direct call, which is what keeps SetAddrP and IncAddrP within its
// budget; the call is indirect, and off the shortcut.
func setAddrP(dst, src *Capability, addr uint64, general func(*Capability)) {
	*dst = *src
	dst.addr = addr
	if dst.tag && (dst.otype != OTypeUnsealed || addr-dst.base >= dst.len) {
		general(dst)
	}
}

// setAddr is SetAddrP's general case: *c = SetAddr(*c, c.addr), out of
// line so that capability-typed values stay out of SetAddrP's callers'
// frames.
//
//go:noinline
func setAddr(c *Capability) {
	*c = SetAddr(*c, c.addr)
}
