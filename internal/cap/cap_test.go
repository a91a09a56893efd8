package cap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNullCapability(t *testing.T) {
	n := Null()
	if n.Tag() {
		t.Fatal("NULL capability must be untagged")
	}
	if n.Base() != 0 || n.Len() != 0 || n.Addr() != 0 {
		t.Fatalf("NULL capability has nonzero fields: %v", n)
	}
	if n.Sealed() {
		t.Fatal("NULL capability must be unsealed")
	}
	if err := n.CheckDeref(0, 1, PermLoad); err == nil {
		t.Fatal("dereferencing NULL must fault")
	}
}

func TestRootCoversRange(t *testing.T) {
	r := Root(0x1000, 0x10000, PermAll)
	if !r.Tag() {
		t.Fatal("root must be tagged")
	}
	if err := r.CheckDeref(0x1000, 0x10000, PermLoad|PermStore); err != nil {
		t.Fatalf("root deref within bounds failed: %v", err)
	}
	if err := r.CheckDeref(0x0fff, 1, PermLoad); err == nil {
		t.Fatal("deref below base must fault")
	}
	if err := r.CheckDeref(0x11000, 1, PermLoad); err == nil {
		t.Fatal("deref at top must fault")
	}
	if err := r.CheckDeref(0x10fff, 2, PermLoad); err == nil {
		t.Fatal("deref straddling top must fault")
	}
}

func TestCheckDerefPermissions(t *testing.T) {
	ro := Root(0, 0x1000, PermRO)
	if err := ro.CheckDeref(0, 8, PermLoad); err != nil {
		t.Fatalf("read through read-only cap failed: %v", err)
	}
	err := ro.CheckDeref(0, 8, PermStore)
	var f *Fault
	if !errors.As(err, &f) || f.Cause != FaultPermStore {
		t.Fatalf("write through read-only cap: got %v, want perm-store fault", err)
	}
	if !errors.Is(err, ErrFault) {
		t.Fatal("fault must match ErrFault")
	}
}

func TestAndPermsMonotonic(t *testing.T) {
	c := Root(0, 0x1000, PermAll)
	d := c.AndPerms(PermRO)
	if d.Perms() != PermRO {
		t.Fatalf("AndPerms: got %v want %v", d.Perms(), PermRO)
	}
	// Attempting to re-add permissions via AndPerms cannot succeed.
	e := d.AndPerms(PermAll)
	if e.Perms() != PermRO {
		t.Fatalf("permissions increased: %v", e.Perms())
	}
}

func TestClearTag(t *testing.T) {
	c := Root(0, 0x1000, PermAll).ClearTag()
	if c.Tag() {
		t.Fatal("ClearTag left tag set")
	}
	if err := c.CheckDeref(0, 1, PermLoad); err == nil {
		t.Fatal("untagged deref must fault")
	}
}

func TestSetBoundsMonotonic(t *testing.T) {
	parent := Root(0x1000, 0x1000, PermAll)
	child, err := SetBounds(parent, 0x1100, 0x100)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if child.Base() != 0x1100 || child.Len() != 0x100 || child.Addr() != 0x1100 {
		t.Fatalf("SetBounds produced %v", child)
	}
	if _, err := SetBounds(parent, 0x1100, 0x1000); err == nil {
		t.Fatal("SetBounds beyond parent top must fail")
	}
	if _, err := SetBounds(parent, 0x0800, 0x100); err == nil {
		t.Fatal("SetBounds below parent base must fail")
	}
	if _, err := SetBounds(child, 0x1100, 0x200); err == nil {
		t.Fatal("re-widening via SetBounds must fail")
	}
}

func TestSetBoundsUntaggedAndSealed(t *testing.T) {
	if _, err := SetBounds(Null(), 0, 0); err == nil {
		t.Fatal("SetBounds on NULL must fail")
	}
	sealer := Root(1, 1, PermSeal)
	c := Root(0x1000, 0x100, PermAll)
	s, err := c.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := SetBounds(s, 0x1000, 0x10); err == nil {
		t.Fatal("SetBounds on sealed capability must fail")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	sealer := Root(7, 1, PermSeal|PermUnseal)
	c := Root(0x1000, 0x100, PermData)
	s, err := c.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if !s.Sealed() || s.OType() != 7 {
		t.Fatalf("sealed cap wrong: %v", s)
	}
	if err := s.CheckDeref(0x1000, 1, PermLoad); err == nil {
		t.Fatal("sealed deref must fault")
	}
	u, err := s.Unseal(sealer)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if u.Sealed() {
		t.Fatal("unsealed cap still sealed")
	}
	wrong := Root(8, 1, PermUnseal)
	if _, err := s.Unseal(wrong); err == nil {
		t.Fatal("unseal with wrong otype must fail")
	}
}

func TestSmallBoundsExact128(t *testing.T) {
	parent := Root(0, 1<<30, PermAll)
	// Small lengths are byte-exact under compression.
	for _, n := range []uint64{1, 3, 7, 15, 100, 1000, 4095, 8192, 14336} {
		c, err := SetBounds(parent, 0x1234, n)
		if err != nil {
			t.Fatalf("SetBounds(%d): %v", n, err)
		}
		if c.Base() != 0x1234 || c.Len() != n {
			t.Fatalf("len %d not exact: %v", n, c)
		}
	}
}

func TestLargeBoundsPadded128(t *testing.T) {
	parent := Root(0, 1<<40, PermAll)
	const req = 1 << 20 // 1 MiB: requires E > 0
	c, err := SetBounds(parent, 1<<20, req+3)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if c.Len() < req+3 {
		t.Fatalf("bounds shrank: %d < %d", c.Len(), req+3)
	}
	if c.Len() == req+3 {
		t.Fatalf("1MiB+3 should have been padded")
	}
	if rl := RepresentableLength(req + 3); c.Len() != rl {
		t.Fatalf("padded length %d != RepresentableLength %d", c.Len(), rl)
	}
}

func TestSetBoundsExact(t *testing.T) {
	parent := Root(0, 1<<40, PermAll)
	if _, err := SetBoundsExact(parent, 1<<20, (1<<20)+3); err == nil {
		t.Fatal("unrepresentable exact bounds must fail")
	}
	rl := RepresentableLength((1 << 20) + 3)
	mask := RepresentableAlignmentMask(rl)
	base := uint64(1<<21) & mask
	if _, err := SetBoundsExact(parent, base, rl); err != nil {
		t.Fatalf("aligned exact bounds failed: %v", err)
	}
}

func TestCursorWindow(t *testing.T) {
	parent := Root(0, 1<<40, PermAll)
	c, err := SetBounds(parent, 1<<20, 1<<16)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	// One past the top: C idiom, must keep the tag.
	d := IncAddr(c, 1<<16)
	if !d.Tag() {
		t.Fatal("one-past-the-end pointer lost its tag")
	}
	if d.InBounds(d.Addr(), 1) {
		t.Fatal("one-past-the-end must be out of bounds")
	}
	// Far out of the representable window: tag must clear.
	e := IncAddr(c, 1<<30)
	if e.Tag() {
		t.Fatal("far out-of-window cursor kept its tag")
	}
	if e.Addr() != (1<<20)+(1<<30) {
		t.Fatalf("address not preserved: %x", e.Addr())
	}
	// Back in bounds via SetAddr on the untagged value stays untagged.
	g := SetAddr(e, 1<<20)
	if g.Tag() {
		t.Fatal("tag resurrected by SetAddr")
	}
}

func TestRepresentableLengthProperties(t *testing.T) {
	check := func(n uint64) bool {
		n &= (1 << 44) - 1
		r := RepresentableLength(n)
		if r < n {
			return false
		}
		// Idempotent.
		if RepresentableLength(r) != r {
			return false
		}
		// Aligned base + rounded length is exactly representable.
		mask := RepresentableAlignmentMask(r)
		return representable(uint64(1<<45)&mask, r)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// exponentLoop is the reference definition of exponent: the smallest E
// whose scaled length fits under the mantissa limit, found one step at a
// time.
func exponentLoop(length uint64) uint {
	const limit = 1<<mw - 1<<(mw-3)
	e := uint(0)
	for length>>e > limit {
		e++
	}
	return e
}

// TestExponentClosedForm: the bits.Len64 closed form agrees with the
// reference loop on every length below 2^20, on every 2^k-1, 2^k and
// 2^k+1, and on 10^5 random 64-bit lengths.
func TestExponentClosedForm(t *testing.T) {
	check := func(n uint64) {
		if got, want := exponent(n), exponentLoop(n); got != want {
			t.Fatalf("length=%#x: exponent %d, loop %d", n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := uint64(0); n < 1<<20; n++ {
		check(n)
	}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		check(p - 1)
		check(p)
		check(p + 1)
	}
	check(^uint64(0))
	for i := 0; i < 100_000; i++ {
		// A random shift spreads the draws over every bit length.
		check(rng.Uint64() >> uint(rng.Intn(64)))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// The subtest is named for the 128-bit encoding, the only one.
	t.Run("c128", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		parent := Root(0, 1<<46, PermAll)
		buf := make([]byte, Bytes)
		for i := 0; i < 5000; i++ {
			addr := rng.Uint64() & ((1 << 45) - 1)
			length := rng.Uint64() & ((1 << uint(4+rng.Intn(24))) - 1)
			c, err := SetBounds(parent, addr, length)
			if err != nil {
				continue
			}
			perms := Perm(rng.Uint32()) & PermAll
			c = c.AndPerms(perms)
			// Wiggle the cursor inside bounds.
			if c.Len() > 0 {
				c = IncAddr(c, int64(rng.Uint64()%c.Len()))
			}
			Encode(c, buf)
			got := Decode(buf, true)
			if !got.Equal(c) {
				t.Fatalf("round trip failed:\n in: %v\nout: %v", c, got)
			}
		}
	})
}

func TestDecodeUntagged(t *testing.T) {
	buf := make([]byte, Bytes)
	c := Root(0x4000, 0x100, PermAll)
	Encode(c, buf)
	got := Decode(buf, false)
	if got.Tag() {
		t.Fatal("decode with clear tag produced tagged cap")
	}
	if got.Addr() != 0x4000 {
		t.Fatalf("address bits lost: %x", got.Addr())
	}
}

// TestDerivationChainMonotonic is the package-level statement of the CHERI
// monotonicity property: along any random chain of derivations, bounds
// never grow and permissions never reappear.
func TestDerivationChainMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		c := Root(0, 1<<40, PermAll)
		base, top, perms := c.Base(), c.Top(), c.Perms()
		for step := 0; step < 50; step++ {
			switch rng.Intn(3) {
			case 0:
				if c.Len() == 0 {
					continue
				}
				off := rng.Uint64() % c.Len()
				ln := rng.Uint64() % (c.Len() - off)
				d, err := SetBounds(c, c.Base()+off, ln)
				if err != nil {
					continue
				}
				c = d
			case 1:
				c = c.AndPerms(Perm(rng.Uint32()) & PermAll)
			case 2:
				if c.Len() > 0 {
					c = SetAddr(c, c.Base()+rng.Uint64()%c.Len())
					if !c.Tag() {
						t.Fatal("in-bounds SetAddr cleared tag")
					}
				}
			}
			if c.Base() < base || c.Top() > top {
				t.Fatalf("bounds grew: [%x,%x) -> [%x,%x)", base, top, c.Base(), c.Top())
			}
			if c.Perms()&^perms != 0 {
				t.Fatalf("permissions grew: %v -> %v", perms, c.Perms())
			}
			base, top, perms = c.Base(), c.Top(), c.Perms()
		}
	}
}

func TestPermString(t *testing.T) {
	if s := PermData.String(); s == "" || s == "-" {
		t.Fatalf("PermData.String() = %q", s)
	}
	if s := Perm(0).String(); s != "-" {
		t.Fatalf("empty perms = %q, want -", s)
	}
}

func TestFaultString(t *testing.T) {
	for c := FaultNone; c <= FaultUnderivedLocal; c++ {
		if c.String() == "" {
			t.Fatalf("missing name for cause %d", int(c))
		}
	}
}
