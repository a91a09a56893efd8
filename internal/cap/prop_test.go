package cap

import (
	"math/rand/v2"
	"testing"
)

// Property tests for the pointer-based shortcuts the CPU's fast engine
// uses: IncAddrP must equal IncAddr (and so SetAddr, the one definition
// of the representable-window rule), and DecodeInto must equal Decode
// field for field, over random capabilities in both formats with their
// edges drawn on purpose.

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
	for _, f := range []Format{Format128, Format256} {
		shortcut := 0
		for i := 0; i < 200_000; i++ {
			src := randCap(r)
			// Deltas to the bounds, one past them, and wrapping ones.
			delta := int64(edgeU64(r, src.base-src.addr, src.base+src.len-src.addr, 0, ^uint64(0)))
			want := f.IncAddr(src, delta)

			dst := randCap(r) // a stale register: every field must be overwritten
			f.IncAddrP(&dst, &src, delta)
			if dst != want {
				t.Fatalf("%s: IncAddrP(%v, %d) = %v, IncAddr gives %v", f.Name, src, delta, dst, want)
			}
			inPlace := src
			f.IncAddrP(&inPlace, &inPlace, delta)
			if inPlace != want {
				t.Fatalf("%s: in-place IncAddrP(%v, %d) = %v, IncAddr gives %v", f.Name, src, delta, inPlace, want)
			}

			// The shortcut's condition implies the general rule keeps the
			// tag and the bounds.
			addr := src.addr + uint64(delta)
			if src.tag && !src.Sealed() && addr-src.base < src.len {
				shortcut++
				if !f.cursorOK(src.base, src.len, addr) || !want.tag || want.base != src.base || want.len != src.len {
					t.Fatalf("%s: in-bounds cursor %#x of %v is not kept by SetAddr: %v", f.Name, addr, src, want)
				}
			}
		}
		if shortcut < 10_000 {
			t.Fatalf("%s: only %d draws took the shortcut", f.Name, shortcut)
		}
	}
}

// TestIncAddrPEdges pins the edge cases by hand: the cursor reaching top
// leaves the shortcut, and when top is 2^64-1 the general rule clears
// the tag there.
func TestIncAddrPEdges(t *testing.T) {
	top := Root(^uint64(0)-0xFFF, 0xFFF, PermData)
	cases := []struct {
		name  string
		f     Format
		c     Capability
		delta int64
		tag   bool
	}{
		{"last byte", Format128, top, 0xFFE, true},
		{"top == 2^64-1", Format128, top, 0xFFF, false},
		{"top == 2^64-1, c256", Format256, top, 0xFFF, true},
		{"one past top", Format128, Root(0x1000, 0x100, PermData), 0x100, true},
		{"len 0", Format128, Root(0x1000, 0, PermData), 0, true},
		{"below base", Format128, Root(0x1000, 0x100, PermData), -1, true},
		{"wraps below 0", Format128, Root(0, 0x100, PermData), -1, false},
		{"far outside", Format128, Root(0x1000, 0x100, PermData), 1 << 40, false},
		{"untagged", Format128, Root(0x1000, 0x100, PermData).ClearTag(), 1, false},
	}
	for _, tc := range cases {
		var got Capability
		tc.f.IncAddrP(&got, &tc.c, tc.delta)
		if want := tc.f.IncAddr(tc.c, tc.delta); got != want {
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
	Format128.IncAddrP(&got, &sealed, 1)
	if got.Tag() || got != Format128.IncAddr(sealed, 1) {
		t.Errorf("sealed: IncAddrP = %v, want the untagged IncAddr result", got)
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	var buf [32]byte
	for _, f := range []Format{Format128, Format256} {
		for i := 0; i < 100_000; i++ {
			tag := r.IntN(4) != 0
			if r.IntN(2) == 0 {
				// Encoded capabilities, as memory holds them.
				f.Encode(randCap(r), buf[:f.Bytes])
			} else {
				for j := range buf {
					buf[j] = byte(r.Uint32())
				}
			}
			want := f.Decode(buf[:f.Bytes], tag)
			got := randCap(r) // a stale register: every field must be overwritten
			f.DecodeInto(&got, buf[:f.Bytes], tag)
			if got != want {
				t.Fatalf("%s: DecodeInto(% x, %v) = %v, Decode gives %v", f.Name, buf[:f.Bytes], tag, got, want)
			}
		}
	}
}
