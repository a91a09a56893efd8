package uaccess

import (
	"bytes"
	"testing"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/cpu"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

const dataVA = 0x20000 // page-aligned test region base

// newSpace boots a minimal machine: tagged memory, caches, a CPU with an
// address space mapping pages pages at dataVA, and a Space over it.
func newSpace(t *testing.T, pages int, slow bool) (*Space, *cpu.CPU) {
	t.Helper()
	m := mem.New(16<<20, 16)
	sys := vm.NewSystem(m, 1<<20)
	c := cpu.New(m, cache.DefaultHierarchy(), cap.Format128)
	c.AS = sys.NewAddressSpace()
	if err := c.AS.Map(dataVA, uint64(pages)*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.Reference = slow
	return &Space{CPU: c}, c
}

func dataCap(pages int) cap.Capability {
	return cap.Root(dataVA, uint64(pages)*vm.PageSize, cap.PermData)
}

// both runs a subtest under the fast and slow movement strategies.
func both(t *testing.T, fn func(t *testing.T, slow bool)) {
	t.Run("bulk", func(t *testing.T) { fn(t, false) })
	t.Run("bytecopy", func(t *testing.T) { fn(t, true) })
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func TestReadWriteRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, _ := newSpace(t, 4, slow)
		user := cap.Root(dataVA, 64, cap.PermData)
		if err := u.Write(user, dataVA, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if err := u.Read(user, dataVA, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "hello" {
			t.Fatalf("round trip = %q", buf)
		}
		// The kernel cannot be tricked into accessing outside the user's
		// capability, and the bounds check fires before any byte moves.
		if err := u.Read(user, dataVA+60, make([]byte, 8)); err == nil {
			t.Fatal("copyin beyond user capability must fail")
		}
		if err := u.Write(user, dataVA+60, make([]byte, 8)); err == nil {
			t.Fatal("copyout beyond user capability must fail")
		}
	})
}

func TestPageBoundaryStraddle(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, _ := newSpace(t, 4, slow)
		auth := dataCap(4)
		// Start mid-page, span three pages.
		va := uint64(dataVA) + vm.PageSize - 100
		data := pattern(2*int(vm.PageSize) + 200)
		if err := u.Write(auth, va, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := u.Read(auth, va, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("straddling write/read corrupted data")
		}
	})
}

// TestPartialProgressOnFault proves EFAULT semantics match the byte loop:
// a copy that runs into an unmapped page moves every byte up to the page
// boundary and nothing after it, under both movement strategies.
func TestPartialProgressOnFault(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, c := newSpace(t, 1, slow) // only page 0 mapped
		auth := cap.Root(dataVA, 2*vm.PageSize, cap.PermData)
		data := pattern(int(vm.PageSize) + 64)
		err := u.Write(auth, dataVA, data)
		if err == nil {
			t.Fatal("write into unmapped page must fault")
		}
		if _, ok := err.(*vm.PageFault); !ok {
			t.Fatalf("want *vm.PageFault, got %T: %v", err, err)
		}
		// The first page was written in full before the fault.
		got := make([]byte, vm.PageSize)
		if err := u.Read(auth, dataVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:vm.PageSize]) {
			t.Fatal("partial progress lost: first page must be fully written")
		}
		// A read across the hole also faults, delivering the mapped prefix.
		buf := make([]byte, len(data))
		for i := range buf {
			buf[i] = 0xEE
		}
		if err := u.Read(auth, dataVA, buf); err == nil {
			t.Fatal("read across unmapped page must fault")
		}
		if !bytes.Equal(buf[:vm.PageSize], data[:vm.PageSize]) {
			t.Fatal("read partial progress lost")
		}
		if buf[vm.PageSize] != 0xEE {
			t.Fatal("read wrote past the faulting page boundary")
		}
		_ = c
	})
}

func TestZeroAndFill(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, _ := newSpace(t, 3, slow)
		auth := dataCap(3)
		n := uint64(vm.PageSize + 300)
		if err := u.Fill(auth, dataVA+50, 0xAB, n); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n+2)
		if err := u.Read(auth, dataVA+49, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0 || got[len(got)-1] != 0 {
			t.Fatal("fill overran its range")
		}
		for i := 1; i <= int(n); i++ {
			if got[i] != 0xAB {
				t.Fatalf("fill hole at %d", i)
			}
		}
		if err := u.Zero(auth, dataVA+50, n); err != nil {
			t.Fatal(err)
		}
		if err := u.Read(auth, dataVA+50, got[:n]); err != nil {
			t.Fatal(err)
		}
		for i, b := range got[:n] {
			if b != 0 {
				t.Fatalf("zero hole at %d", i)
			}
		}
	})
}

// TestCopyPreservesTags proves capability tags survive aligned bulk
// copies when the capabilities grant the load/store-capability
// permissions, and are stripped otherwise — the same rules the
// per-granule LoadCapVia/StoreCapVia path enforces.
func TestCopyPreservesTags(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, c := newSpace(t, 4, slow)
		auth := dataCap(4)
		// Plant a tagged capability plus surrounding data in the source.
		inner := cap.Root(dataVA+128, 64, cap.PermLoad|cap.PermStore)
		if err := c.StoreCapVia(auth, dataVA+16, inner); err != nil {
			t.Fatal(err)
		}
		if err := u.Write(auth, dataVA, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}

		dstVA := uint64(dataVA) + 2*vm.PageSize
		if err := u.Copy(auth, dstVA, auth, dataVA, 48); err != nil {
			t.Fatal(err)
		}
		got, err := c.LoadCapVia(auth, dstVA+16)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() {
			t.Fatal("aligned copy with LoadCap/StoreCap perms must preserve the tag")
		}
		if got.Base() != inner.Base() || got.Len() != inner.Len() || got.Perms() != inner.Perms() {
			t.Fatalf("copied capability corrupted: %v vs %v", got, inner)
		}
		head := make([]byte, 16)
		if err := u.Read(auth, dstVA, head); err != nil {
			t.Fatal(err)
		}
		if string(head) != "0123456789abcdef" {
			t.Fatalf("data around the capability corrupted: %q", head)
		}

		// Misaligned copy: tags cannot travel.
		if err := u.Copy(auth, dstVA+vm.PageSize+8, auth, dataVA, 48); err != nil {
			t.Fatal(err)
		}
		got, err = c.LoadCapVia(auth, dstVA+vm.PageSize+16)
		if err == nil && got.Tag() {
			t.Fatal("misaligned copy must strip tags")
		}

		// Destination without PermStoreCap: data copies, tags stripped.
		weak := auth.AndPerms(cap.PermLoad | cap.PermStore)
		if err := u.Copy(weak, dstVA+vm.PageSize, auth, dataVA, 48); err != nil {
			t.Fatal(err)
		}
		got, err = c.LoadCapVia(auth, dstVA+vm.PageSize+16)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag() {
			t.Fatal("copy without PermStoreCap must strip tags")
		}

		// Destination with PermStoreCap but not PermStoreLocalCap: storing
		// a tagged *non-global* value must fault (as a capability store
		// instruction would); a tagged *global* value still travels.
		noLocal := auth.ClearPerms(cap.PermStoreLocalCap)
		nlDst := uint64(dataVA) + 3*vm.PageSize + 512
		err = u.Copy(noLocal, nlDst, auth, dataVA, 48)
		if err == nil {
			t.Fatal("copying a non-global tagged cap without StoreLocalCap must fault")
		}
		if f, ok := err.(*cap.Fault); !ok || f.Cause != cap.FaultUnderivedLocal {
			t.Fatalf("want FaultUnderivedLocal, got %v", err)
		}
		global := cap.Root(dataVA+128, 64, cap.PermData) // PermData includes Global
		if err := c.StoreCapVia(auth, dataVA+512, global); err != nil {
			t.Fatal(err)
		}
		if err := u.Copy(noLocal, nlDst, auth, dataVA+512, 16); err != nil {
			t.Fatal(err)
		}
		got, err = c.LoadCapVia(auth, nlDst)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() {
			t.Fatal("global tagged cap must survive a StoreCap-only destination")
		}
	})
}

// TestCopyOverlap proves memmove semantics in both directions.
func TestCopyOverlap(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, _ := newSpace(t, 4, slow)
		auth := dataCap(4)
		data := pattern(300)
		want := make([]byte, len(data))

		// Forward overlap (dst > src).
		if err := u.Write(auth, dataVA, data); err != nil {
			t.Fatal(err)
		}
		if err := u.Copy(auth, dataVA+37, auth, dataVA, uint64(len(data))); err != nil {
			t.Fatal(err)
		}
		copy(want, data)
		got := make([]byte, len(data))
		if err := u.Read(auth, dataVA+37, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("forward-overlap copy corrupted data")
		}

		// Backward overlap (dst < src).
		if err := u.Write(auth, dataVA+1000, data); err != nil {
			t.Fatal(err)
		}
		if err := u.Copy(auth, dataVA+1000-53, auth, dataVA+1000, uint64(len(data))); err != nil {
			t.Fatal(err)
		}
		if err := u.Read(auth, dataVA+1000-53, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("backward-overlap copy corrupted data")
		}
	})
}

func TestCString(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, _ := newSpace(t, 4, slow)
		auth := dataCap(4)

		// A string straddling a page boundary.
		va := uint64(dataVA) + vm.PageSize - 3
		if err := u.Write(auth, va, []byte("hello, page\x00")); err != nil {
			t.Fatal(err)
		}
		s, err := u.CString(auth, va, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if s != "hello, page" {
			t.Fatalf("CString = %q", s)
		}

		// NUL on the last in-bounds byte: no fault.
		tight := cap.Root(dataVA, 6, cap.PermData)
		if err := u.Write(tight, dataVA, []byte("abcde\x00")); err != nil {
			t.Fatal(err)
		}
		if s, err = u.CString(tight, dataVA, 4096); err != nil || s != "abcde" {
			t.Fatalf("CString tight = %q, %v", s, err)
		}

		// Unterminated within bounds: faults at the first out-of-bounds
		// byte, like a byte-at-a-time walk.
		if err := u.Fill(tight, dataVA, 'x', 6); err != nil {
			t.Fatal(err)
		}
		if _, err = u.CString(tight, dataVA, 4096); err == nil {
			t.Fatal("unterminated string must fault at the capability bound")
		} else if _, ok := err.(*cap.Fault); !ok {
			t.Fatalf("want *cap.Fault, got %T: %v", err, err)
		}

		// Longer than the scan limit: ErrTooLong.
		if err := u.Fill(auth, dataVA, 'y', 200); err != nil {
			t.Fatal(err)
		}
		if _, err = u.CString(auth, dataVA, 100); err != ErrTooLong {
			t.Fatalf("want ErrTooLong, got %v", err)
		}
	})
}

// TestCOWUnderFork drives a bulk write into a forked address space: the
// first write to a shared page must resolve copy-on-write inside the
// run walk, the child must keep the original bytes, and the copy must
// land in the parent's private frame.
func TestCOWUnderFork(t *testing.T) {
	both(t, func(t *testing.T, slow bool) {
		u, c := newSpace(t, 4, slow)
		auth := dataCap(4)
		orig := pattern(2 * int(vm.PageSize))
		if err := u.Write(auth, dataVA, orig); err != nil {
			t.Fatal(err)
		}
		parent := c.AS
		child := parent.Fork()

		// Parent bulk-writes across both shared pages.
		update := bytes.Repeat([]byte{0x5A}, len(orig))
		if err := u.Write(auth, dataVA, update); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(orig))
		if err := u.Read(auth, dataVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, update) {
			t.Fatal("parent lost its COW-resolved write")
		}

		// The child still sees the pre-fork bytes.
		c.AS = child
		if err := u.Read(auth, dataVA, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatal("bulk write leaked through COW into the child")
		}
		c.AS = parent
		child.Release()
	})
}

// TestFastSlowEquivalence runs an identical operation sequence on two
// fresh machines — bulk fast path on and off — and requires bit-identical
// cycles and memory contents, the unit-level version of the top-level
// differential matrix.
func TestFastSlowEquivalence(t *testing.T) {
	type result struct {
		cycles uint64
		dump   []byte
		errs   []string
	}
	runSeq := func(slow bool) result {
		u, c := newSpace(t, 4, slow)
		auth := dataCap(4)
		var errs []string
		note := func(err error) {
			if err != nil {
				errs = append(errs, err.Error())
			} else {
				errs = append(errs, "ok")
			}
		}
		note(u.Write(auth, dataVA+10, pattern(6000)))
		note(u.Fill(auth, dataVA+7000, 0x77, 3000))
		note(u.Zero(auth, dataVA+100, 512))
		inner := cap.Root(dataVA, 32, cap.PermData)
		note(c.StoreCapVia(auth, dataVA+4096, inner))
		note(u.Copy(auth, dataVA+2*vm.PageSize, auth, dataVA+4096, 2048))
		note(u.Copy(auth, dataVA+3*vm.PageSize+1, auth, dataVA+11, 100))
		_, err := u.CString(auth, dataVA+7000, 4096)
		note(err)
		// Faulting ops too: beyond-bounds and into-the-void.
		hole := cap.Root(dataVA, 8*vm.PageSize, cap.PermData)
		note(u.Write(hole, dataVA+3*vm.PageSize+100, pattern(2*int(vm.PageSize))))
		note(u.Read(cap.Root(dataVA, 16, cap.PermData), dataVA+8, make([]byte, 16)))
		dump := make([]byte, 4*vm.PageSize)
		if err := u.Read(auth, dataVA, dump); err != nil {
			t.Fatal(err)
		}
		return result{cycles: c.Stats.Cycles, dump: dump, errs: errs}
	}
	fast := runSeq(false)
	slowR := runSeq(true)
	if fast.cycles != slowR.cycles {
		t.Errorf("cycles diverged: bulk %d, bytecopy %d", fast.cycles, slowR.cycles)
	}
	if !bytes.Equal(fast.dump, slowR.dump) {
		t.Error("memory contents diverged between bulk and bytecopy paths")
	}
	for i := range fast.errs {
		if fast.errs[i] != slowR.errs[i] {
			t.Errorf("op %d error diverged: %q vs %q", i, fast.errs[i], slowR.errs[i])
		}
	}
}
