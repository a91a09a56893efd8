package cap

import (
	"math/rand/v2"
	"testing"
)

// Property tests for the pointer-based shortcuts the CPU's fast engine
// uses: IncAddrP must equal IncAddr (and so SetAddr, the one definition
// of the representable-window rule), and DecodeInto must equal Decode
// field for field, over random capabilities with their edges drawn on
// purpose.

// edgeU64 returns a random value, drawn often from the edges near the
// given points.
func edgeU64(r *rand.Rand, points ...uint64) uint64 {
	if len(points) > 0 && r.IntN(3) != 0 {
		p := points[r.IntN(len(points))]
		return p + uint64(r.IntN(5)) - 2
	}
	switch r.IntN(4) {
	case 0:
		return uint64(r.IntN(1 << 16))
	case 1:
		return 1 << r.IntN(64)
	default:
		return r.Uint64()
	}
}

// randCap returns a capability with valid bounds (base+len does not
// overflow) whose fields are drawn from the edges: len 0, top 2^64-1,
// cursor at base, at top and outside, sealed and untagged.
func randCap(r *rand.Rand) Capability {
	base := edgeU64(r, 0, 1<<40, ^uint64(0))
	var length uint64
	switch r.IntN(5) {
	case 0:
		length = 0
	case 1:
		length = ^uint64(0) - base // top == 2^64-1
	default:
		length = edgeU64(r, 0, 1<<11, 1<<14, 1<<20)
		if room := ^uint64(0) - base; length > room {
			length %= room + 1 // room+1 == 0 only at base 0, where any length fits
		}
	}
	c := Capability{
		tag:   r.IntN(4) != 0,
		base:  base,
		len:   length,
		addr:  edgeU64(r, base, base+length, base+length/2),
		perms: Perm(r.IntN(int(PermAll) + 1)),
		otype: OTypeUnsealed,
	}
	if r.IntN(5) == 0 {
		c.otype = uint32(r.IntN(0xFF))
	}
	return c
}

func TestIncAddrPMatchesIncAddr(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	shortcut := 0
	for i := 0; i < 200_000; i++ {
		src := randCap(r)
		// Deltas to the bounds, one past them, and wrapping ones.
		delta := int64(edgeU64(r, src.base-src.addr, src.base+src.len-src.addr, 0, ^uint64(0)))
		want := IncAddr(src, delta)

		dst := randCap(r) // a stale register: every field must be overwritten
		IncAddrP(&dst, &src, delta)
		if dst != want {
			t.Fatalf("IncAddrP(%v, %d) = %v, IncAddr gives %v", src, delta, dst, want)
		}
		inPlace := src
		IncAddrP(&inPlace, &inPlace, delta)
		if inPlace != want {
			t.Fatalf("in-place IncAddrP(%v, %d) = %v, IncAddr gives %v", src, delta, inPlace, want)
		}

		// The shortcut's condition implies the general rule keeps the
		// tag and the bounds.
		addr := src.addr + uint64(delta)
		if src.tag && !src.Sealed() && addr-src.base < src.len {
			shortcut++
			if !cursorOK(src.base, src.len, addr) || !want.tag || want.base != src.base || want.len != src.len {
				t.Fatalf("in-bounds cursor %#x of %v is not kept by SetAddr: %v", addr, src, want)
			}
		}
	}
	if shortcut < 10_000 {
		t.Fatalf("only %d draws took the shortcut", shortcut)
	}
}

// TestIncAddrPEdges pins the edge cases by hand: the cursor reaching top
// leaves the shortcut, and when top is 2^64-1 the general rule clears
// the tag there.
func TestIncAddrPEdges(t *testing.T) {
	top := Root(^uint64(0)-0xFFF, 0xFFF, PermData)
	cases := []struct {
		name  string
		c     Capability
		delta int64
		tag   bool
	}{
		{"last byte", top, 0xFFE, true},
		{"top == 2^64-1", top, 0xFFF, false},
		{"one past top", Root(0x1000, 0x100, PermData), 0x100, true},
		{"len 0", Root(0x1000, 0, PermData), 0, true},
		{"below base", Root(0x1000, 0x100, PermData), -1, true},
		{"wraps below 0", Root(0, 0x100, PermData), -1, false},
		{"far outside", Root(0x1000, 0x100, PermData), 1 << 40, false},
		{"untagged", Root(0x1000, 0x100, PermData).ClearTag(), 1, false},
	}
	for _, tc := range cases {
		var got Capability
		IncAddrP(&got, &tc.c, tc.delta)
		if want := IncAddr(tc.c, tc.delta); got != want {
			t.Errorf("%s: IncAddrP = %v, IncAddr = %v", tc.name, got, want)
		}
		if got.Tag() != tc.tag {
			t.Errorf("%s: tag = %v, want %v (%v)", tc.name, got.Tag(), tc.tag, got)
		}
	}
	sealer := Root(0, 16, PermSeal)
	sealer.addr = 3
	sealed, err := Root(0x1000, 0x100, PermData).Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	var got Capability
	IncAddrP(&got, &sealed, 1)
	if got.Tag() || got != IncAddr(sealed, 1) {
		t.Errorf("sealed: IncAddrP = %v, want the untagged IncAddr result", got)
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var buf [Bytes]byte
	for i := 0; i < 100_000; i++ {
		tag := r.IntN(4) != 0
		if r.IntN(2) == 0 {
			// Encoded capabilities, as memory holds them.
			Encode(randCap(r), buf[:])
		} else {
			for j := range buf {
				buf[j] = byte(r.Uint32())
			}
		}
		want := Decode(buf[:], tag)
		got := randCap(r) // a stale register: every field must be overwritten
		DecodeInto(&got, buf[:], tag)
		if got != want {
			t.Fatalf("DecodeInto(% x, %v) = %v, Decode gives %v", buf[:], tag, got, want)
		}
	}
}

// The capability algebra's monotonicity, after A Formal CHERI-C
// Semantics for Verification (arXiv 2211.07511): a derivation never
// widens bounds or permissions, and a tag is never reconstructed. Over
// random capabilities, with the edges drawn on purpose, every derived
// capability that carries a tag must come from a tagged input, lie within
// the input's bounds and hold a subset of its permissions.

// derivedWithin reports why out is not a monotonic derivation of in, or
// "" if it is. An untagged output grants nothing, so only its origin is
// checked.
func derivedWithin(in, out Capability) string {
	switch {
	case !out.tag:
		return ""
	case !in.tag:
		return "tag reconstructed from an untagged input"
	case out.base < in.base || out.base+out.len > in.base+in.len:
		return "bounds widened"
	case out.perms&^in.perms != 0:
		return "permissions widened"
	}
	return ""
}

func TestDerivationsNeverWiden(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100_000; i++ {
		c := randCap(r)
		addr := edgeU64(r, c.base, c.base+c.len, c.addr)
		length := edgeU64(r, 0, c.len, c.base+c.len-addr, 1<<14, 7<<11)
		delta := int64(edgeU64(r, c.base-c.addr, c.base+c.len-c.addr, 0))
		perms := Perm(r.IntN(int(PermAll) + 1))
		type derivation struct {
			name string
			out  Capability
			err  error
		}
		bounded, errB := SetBounds(c, addr, length)
		exact, errE := SetBoundsExact(c, addr, length)
		for _, d := range []derivation{
			{"SetBounds", bounded, errB},
			{"SetBoundsExact", exact, errE},
			{"AndPerms", c.AndPerms(perms), nil},
			{"SetAddr", SetAddr(c, addr), nil},
			{"IncAddr", IncAddr(c, delta), nil},
		} {
			if d.err != nil {
				if d.out.tag {
					t.Fatalf("%s of %v failed (%v) but returned a tagged %v", d.name, c, d.err, d.out)
				}
				continue
			}
			if why := derivedWithin(c, d.out); why != "" {
				t.Fatalf("%s of %v (addr %#x, length %#x, delta %d, perms %v) gave %v: %s",
					d.name, c, addr, length, delta, perms, d.out, why)
			}
		}
	}
}

// TestSetBoundsExactMatchesRepresentable: under a parent that covers the
// request, SetBoundsExact succeeds exactly when RepresentableLength keeps
// the length and RepresentableAlignmentMask keeps the base, and then
// returns exactly the requested bounds. SetBounds returns the smallest
// aligned region at the request's exponent that contains it.
func TestSetBoundsExactMatchesRepresentable(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	parent := Root(0, ^uint64(0), PermAll)
	exact := 0
	for i := 0; i < 200_000; i++ {
		length := edgeU64(r, 1<<11, 7<<11, 1<<14, 7<<13, 1<<20, 7<<20)
		if r.IntN(3) == 0 {
			length = RepresentableLength(length)
		}
		addr := edgeU64(r, 0, 1<<20, 1<<40)
		if r.IntN(3) == 0 {
			addr &= RepresentableAlignmentMask(length)
		}
		if addr > ^uint64(0)-length {
			continue
		}
		want := RepresentableLength(length) == length && addr&^RepresentableAlignmentMask(length) == 0
		got, err := SetBoundsExact(parent, addr, length)
		if (err == nil) != want {
			t.Fatalf("SetBoundsExact(%#x, %#x) err %v, RepresentableLength %#x, mask %#x",
				addr, length, err, RepresentableLength(length), RepresentableAlignmentMask(length))
		}
		if err == nil {
			exact++
			if got.base != addr || got.len != length || got.addr != addr || !got.tag {
				t.Fatalf("SetBoundsExact(%#x, %#x) = %v", addr, length, got)
			}
		}
		b, err := SetBounds(parent, addr, length)
		if err != nil {
			continue // rounding left the parent
		}
		mask := ^RepresentableAlignmentMask(length)
		if b.base != addr&^mask || b.base+b.len != (addr+length+mask)&^mask {
			t.Fatalf("SetBounds(%#x, %#x) = %v, want [%#x, %#x)", addr, length, b,
				addr&^mask, (addr+length+mask)&^mask)
		}
	}
	if exact < 10_000 {
		t.Fatalf("only %d exact requests", exact)
	}
}

// representableCap returns a random capability the encoding can hold:
// exactly representable bounds, a cursor in the representable window and
// an object type that fits the encoded field.
func representableCap(r *rand.Rand) Capability {
	for {
		c := randCap(r)
		c.tag = true
		if c.otype != OTypeUnsealed {
			c.otype %= 0xFF
		}
		mask := ^RepresentableAlignmentMask(c.len)
		c.base &^= mask
		c.len &^= mask
		if c.base > ^uint64(0)-c.len {
			continue
		}
		if r.IntN(2) == 0 {
			c.addr = c.base + edgeU64(r, 0, c.len)
		}
		if representable(c.base, c.len) && cursorOK(c.base, c.len, c.addr) {
			return c
		}
	}
}

// TestEncodeDecodeRoundTripsRepresentable: Decode(Encode(c)) == c for
// every representable tagged capability, and an untagged one decodes to
// its cursor alone.
func TestEncodeDecodeRoundTripsRepresentable(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	var buf [Bytes]byte
	for i := 0; i < 200_000; i++ {
		c := representableCap(r)
		Encode(c, buf[:])
		if got := Decode(buf[:], true); got != c {
			t.Fatalf("Decode(Encode(%v)) = %v", c, got)
		}
		if got := Decode(buf[:], false); got != NullWithAddr(c.addr) {
			t.Fatalf("untagged Decode(Encode(%v)) = %v", c, got)
		}
	}
}

// TestAuthorizesMatchesCheckDeref: the pointer-based Authorizes the
// access fast paths call makes exactly CheckDeref's decision.
func TestAuthorizesMatchesCheckDeref(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	needs := []Perm{PermLoad, PermStore, PermExecute, PermLoad | PermLoadCap,
		PermStore | PermStoreCap, PermStore | PermStoreCap | PermStoreLocalCap}
	yes := 0
	for i := 0; i < 300_000; i++ {
		c := randCap(r)
		addr := edgeU64(r, c.base, c.base+c.len, c.addr, c.base+c.len-8)
		size := edgeU64(r, 0, 1, 8, 16, 32, c.len)
		need := needs[r.IntN(len(needs))]
		if r.IntN(4) == 0 {
			need = Perm(r.IntN(int(PermAll) + 1))
		}
		got := c.Authorizes(addr, size, need)
		if want := c.CheckDeref(addr, size, need) == nil; got != want {
			t.Fatalf("Authorizes(%v, %#x, %d, %v) = %v, CheckDeref says %v", c, addr, size, need, got, want)
		}
		if got {
			yes++
		}
	}
	if yes < 5_000 {
		t.Fatalf("only %d draws were authorized", yes)
	}
}
