package vm

import (
	"fmt"
	"slices"
	"testing"

	"cheriabi/internal/mem"
)

func newSys(t *testing.T) *System {
	t.Helper()
	return NewSystem(mem.New(8<<20), 1<<20)
}

func TestMapTranslateDemandZero(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	if err := as.Map(0x10000, 2*PageSize, ProtRead|ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if as.Resident(0x10000) {
		t.Fatal("demand-zero page resident before touch")
	}
	pa, f := as.Translate(0x10004, ProtRead)
	if f != nil {
		t.Fatal(f)
	}
	if as.Stats.DemandZero != 1 {
		t.Fatalf("demand-zero count %d", as.Stats.DemandZero)
	}
	if s.Mem.Load(pa, 4) != 0 {
		t.Fatal("page not zeroed")
	}
	pa2, f := as.Translate(0x10004, ProtRead)
	if f != nil || pa2 != pa {
		t.Fatalf("second translate: pa=%x fault=%v", pa2, f)
	}
}

func TestHardFaults(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	if _, f := as.Translate(0xdead000, ProtRead); f == nil || f.Kind != FaultNotMapped {
		t.Fatalf("unmapped: %v", f)
	}
	if err := as.Map(0x10000, PageSize, ProtRead, false); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Translate(0x10000, ProtWrite); f == nil || f.Kind != FaultProt {
		t.Fatalf("write to read-only: %v", f)
	}
	if _, f := as.Translate(0x10000, ProtExec); f == nil || f.Kind != FaultProt {
		t.Fatalf("exec of non-exec: %v", f)
	}
}

func TestOverlapRejectedUnlessReplace(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	if err := as.Map(0x10000, PageSize, ProtRead, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x10000, PageSize, ProtRead, false); err == nil {
		t.Fatal("overlapping map succeeded")
	}
	if err := as.Map(0x10000, PageSize, ProtRead|ProtWrite, true); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
	if _, f := as.Translate(0x10000, ProtWrite); f != nil {
		t.Fatalf("replaced mapping not writable: %v", f)
	}
}

func TestUnmap(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	if err := as.Map(0x10000, 2*PageSize, ProtRead|ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	as.Translate(0x10000, ProtWrite)
	free := s.Frames.Free()
	if err := as.Unmap(0x10000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if s.Frames.Free() != free+1 {
		t.Fatalf("frame not freed: %d -> %d", free, s.Frames.Free())
	}
	if _, f := as.Translate(0x10000, ProtRead); f == nil {
		t.Fatal("unmapped page still translates")
	}
}

func TestCopyOnWriteFork(t *testing.T) {
	s := newSys(t)
	parent := s.NewAddressSpace()
	if err := parent.Map(0x20000, PageSize, ProtRead|ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	pa, _ := parent.Translate(0x20000, ProtWrite)
	s.Mem.Store(pa, 8, 0xABCD)

	child := parent.Fork()
	cpa, f := child.Translate(0x20000, ProtRead)
	if f != nil {
		t.Fatal(f)
	}
	if cpa != pa {
		t.Fatal("COW read should share the frame")
	}
	if s.Mem.Load(cpa, 8) != 0xABCD {
		t.Fatal("child does not see parent data")
	}

	// Child write triggers the copy.
	wpa, f := child.Translate(0x20000, ProtWrite)
	if f != nil {
		t.Fatal(f)
	}
	if wpa == pa {
		t.Fatal("COW write did not copy")
	}
	if child.Stats.COWCopies != 1 {
		t.Fatalf("cow copies = %d", child.Stats.COWCopies)
	}
	s.Mem.Store(wpa, 8, 0x1111)
	if s.Mem.Load(pa, 8) != 0xABCD {
		t.Fatal("child write leaked into parent")
	}

	// Parent's next write finds itself sole owner: no second copy needed.
	ppa, _ := parent.Translate(0x20000, ProtWrite)
	if ppa != pa {
		t.Fatal("parent should keep its frame after child copied")
	}
}

func TestCOWPreservesTags(t *testing.T) {
	s := newSys(t)
	parent := s.NewAddressSpace()
	parent.Map(0x20000, PageSize, ProtRead|ProtWrite, false)
	pa, _ := parent.Translate(0x20000, ProtWrite)
	s.Mem.StoreCap(pa, make([]byte, 16), true)

	child := parent.Fork()
	wpa, _ := child.Translate(0x20000, ProtWrite)
	if !s.Mem.Tag(wpa) {
		t.Fatal("COW copy lost capability tag")
	}
}

func TestSwapRoundTripRederivesTags(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	as.Map(0x30000, PageSize, ProtRead|ProtWrite, false)
	pa, _ := as.Translate(0x30000, ProtWrite)
	s.Mem.StoreCap(pa, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, true)
	s.Mem.Store(pa+16, 8, 0xFEED)

	allowed := 0
	as.Rederive = func(pa uint64) bool { allowed++; return true }

	if err := as.SwapOut(0x30000); err != nil {
		t.Fatal(err)
	}
	if as.Resident(0x30000) {
		t.Fatal("page resident after swap-out")
	}
	if s.Swap.Len() != 1 {
		t.Fatalf("swap slots = %d", s.Swap.Len())
	}

	npa, f := as.Translate(0x30000, ProtRead)
	if f != nil {
		t.Fatal(f)
	}
	if allowed != 1 {
		t.Fatalf("rederive called %d times, want 1", allowed)
	}
	if !s.Mem.Tag(npa) {
		t.Fatal("tag not restored on swap-in")
	}
	if s.Mem.Load(npa, 1) != 1 || s.Mem.Load(npa+16, 8) != 0xFEED {
		t.Fatal("data corrupted across swap")
	}
	if as.Stats.SwapIns != 1 || as.Stats.SwapOuts != 1 || as.Stats.TagsKept != 1 {
		t.Fatalf("stats %+v", as.Stats)
	}
}

func TestSwapInRederiveRefusal(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	as.Map(0x30000, PageSize, ProtRead|ProtWrite, false)
	pa, _ := as.Translate(0x30000, ProtWrite)
	s.Mem.StoreCap(pa, make([]byte, 16), true)
	as.Rederive = func(pa uint64) bool { return false }
	as.SwapOut(0x30000)
	npa, _ := as.Translate(0x30000, ProtRead)
	if s.Mem.Tag(npa) {
		t.Fatal("refused tag was restored")
	}
	if as.Stats.TagsLost != 1 {
		t.Fatalf("stats %+v", as.Stats)
	}
}

func TestForkOfSwappedPage(t *testing.T) {
	s := newSys(t)
	parent := s.NewAddressSpace()
	parent.Map(0x40000, PageSize, ProtRead|ProtWrite, false)
	pa, _ := parent.Translate(0x40000, ProtWrite)
	s.Mem.Store(pa, 8, 42)
	parent.SwapOut(0x40000)

	child := parent.Fork()
	cpa, f := child.Translate(0x40000, ProtRead)
	if f != nil {
		t.Fatal(f)
	}
	if s.Mem.Load(cpa, 8) != 42 {
		t.Fatal("child lost swapped data")
	}
	ppa, f := parent.Translate(0x40000, ProtRead)
	if f != nil {
		t.Fatal(f)
	}
	if s.Mem.Load(ppa, 8) != 42 {
		t.Fatal("parent lost swapped data")
	}
}

func TestFindFree(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	as.Map(0x10000, PageSize, ProtRead, false)
	as.Map(0x12000, PageSize, ProtRead, false)
	const end = 0x20000
	if va, ok := as.FindFree(0x10000, PageSize, end); !ok || va != 0x11000 {
		t.Fatalf("FindFree = %x %v, want 0x11000", va, ok)
	}
	if va, ok := as.FindFree(0x10000, 2*PageSize, end); !ok || va != 0x13000 {
		t.Fatalf("FindFree(2 pages) = %x %v, want 0x13000", va, ok)
	}
	// The gap must end at or below end.
	if va, ok := as.FindFree(0x13000, end-0x13000, end); !ok || va != 0x13000 {
		t.Fatalf("FindFree(to end) = %x %v, want 0x13000", va, ok)
	}
	for _, length := range []uint64{end - 0x13000 + 1, 1 << 40, ^uint64(0)} {
		if va, ok := as.FindFree(0x10000, length, end); ok {
			t.Fatalf("FindFree(%#x) = %x, want none below %#x", length, va, end)
		}
	}
	if va, ok := as.FindFree(end, PageSize, end); ok {
		t.Fatalf("FindFree at end = %x, want none", va)
	}
}

func TestRegions(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	as.Map(0x10000, 2*PageSize, ProtRead|ProtExec, false)
	as.Map(0x12000, PageSize, ProtRead|ProtWrite, false)
	as.Map(0x20000, PageSize, ProtRead, false)
	r := as.Regions()
	if len(r) != 3 {
		t.Fatalf("regions: %+v", r)
	}
	if r[0].Start != 0x10000 || r[0].End != 0x12000 || r[0].Prot != ProtRead|ProtExec {
		t.Fatalf("region 0: %+v", r[0])
	}
}

func TestReleaseFreesEverything(t *testing.T) {
	s := newSys(t)
	as := s.NewAddressSpace()
	as.Map(0x10000, 4*PageSize, ProtRead|ProtWrite, false)
	for i := uint64(0); i < 4; i++ {
		as.Translate(0x10000+i*PageSize, ProtWrite)
	}
	as.SwapOut(0x10000)
	free := s.Frames.Free()
	as.Release()
	if s.Frames.Free() != free+3 {
		t.Fatalf("frames not released: %d -> %d", free, s.Frames.Free())
	}
	if s.Swap.Len() != 0 {
		t.Fatal("swap slot leaked")
	}
}

func TestFreshASIDs(t *testing.T) {
	s := newSys(t)
	a := s.NewAddressSpace()
	b := s.NewAddressSpace()
	if a.ID == b.ID {
		t.Fatal("address-space principal IDs must be unique")
	}
}

// TestReleaseOrderDeterministic: frames freed by process exit re-enter
// the allocator in ascending address order, never Go map iteration order
// — otherwise the physical placement of every later allocation (and with
// it the simulated cache behaviour) flickers across identical runs. The
// posix-sockets differential rows caught the original map-order bug.
func TestReleaseOrderDeterministic(t *testing.T) {
	freeList := func() []uint64 {
		s := newSys(t)
		as := s.NewAddressSpace()
		as.Map(0x10000, 40*PageSize, ProtRead|ProtWrite, false)
		for i := uint64(0); i < 40; i++ {
			as.Translate(0x10000+i*PageSize, ProtWrite)
		}
		as.Release()
		return append([]uint64{}, s.Frames.free...)
	}
	a, b := freeList(), freeList()
	if len(a) != len(b) {
		t.Fatalf("free list lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("free list order diverged at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// freeListFrames is the allocator Frames replaced, kept as its oracle:
// every free frame sits on one list, built in descending address order,
// and allocation pops its tail, so frames come out in ascending order
// with freed frames pushed on top, most recent first.
type freeListFrames struct {
	free []uint64
	refs map[uint64]int
}

func newFreeListFrames(start, end uint64) *freeListFrames {
	f := &freeListFrames{refs: map[uint64]int{}}
	for pa := end &^ (PageSize - 1); pa >= start+PageSize; pa -= PageSize {
		f.free = append(f.free, pa-PageSize)
	}
	return f
}

func (f *freeListFrames) alloc() uint64 {
	pa := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.refs[pa] = 1
	return pa
}

func (f *freeListFrames) incref(pa uint64) { f.refs[pa]++ }

func (f *freeListFrames) decref(pa uint64) {
	f.refs[pa]--
	if f.refs[pa] == 0 {
		delete(f.refs, pa)
		f.free = append(f.free, pa)
	}
}

// oraclePage is the oracle's page-table entry: a resident, writable
// page and whether it is copy-on-write.
type oraclePage struct {
	frame uint64
	cow   bool
}

// FuzzFramesMatchesFreeList drives a System's Frames, directly and
// through address spaces, alongside the free-list oracle and a plain
// model of the page tables, and requires every frame handed out and
// every Free() count to agree. Each 2-byte group of the input is one op:
// allocate, incref or decref a loose frame; write-touch a page (demand
// zero or a copy-on-write copy); or fork, release or create an address
// space. Kind 6 is unassigned and skipped, so the committed corpus still
// decodes. At the end both sides hand out every remaining frame, which
// must come out in the same order.
func FuzzFramesMatchesFreeList(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 3, 4, 4, 0, 3, 4, 5, 0, 0, 0, 2, 0, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		const reserved, size = 1 << 20, 1<<20 + 64*PageSize
		s := NewSystem(mem.New(size), reserved)
		o := newFreeListFrames(reserved, size)
		type space struct {
			as    *AddressSpace
			pages map[uint64]*oraclePage
		}
		var spaces []*space
		var loose []uint64 // one entry per reference held outside any address space
		check := func(what string) {
			t.Helper()
			if got, want := s.Frames.Free(), len(o.free); got != want {
				t.Fatalf("after %s: Free() = %d, oracle %d", what, got, want)
			}
		}
		for ; len(in) >= 2; in = in[2:] {
			kind, arg := in[0]%8, int(in[1])
			switch {
			case kind == 0 && len(o.free) > 0:
				got, want := s.Frames.alloc(), o.alloc()
				if got != want {
					t.Fatalf("alloc = %#x, oracle %#x", got, want)
				}
				loose = append(loose, got)
			case kind == 1 && len(loose) > 0:
				pa := loose[arg%len(loose)]
				s.Frames.incref(pa)
				o.incref(pa)
				loose = append(loose, pa)
			case kind == 2 && len(loose) > 0:
				i := arg % len(loose)
				s.Frames.decref(loose[i])
				o.decref(loose[i])
				loose = append(loose[:i], loose[i+1:]...)
			case kind == 3 && len(spaces) > 0 && len(o.free) > 0:
				sp := spaces[arg%len(spaces)]
				vpn := uint64(0x10 + arg/8%16)
				va := vpn << PageShift
				pg := sp.pages[vpn]
				if pg == nil {
					if err := sp.as.Map(va, PageSize, ProtRead|ProtWrite, false); err != nil {
						t.Fatal(err)
					}
					pg = &oraclePage{frame: o.alloc()}
					sp.pages[vpn] = pg
				} else if pg.cow {
					if o.refs[pg.frame] > 1 {
						old := pg.frame
						pg.frame = o.alloc()
						o.decref(old)
					}
					pg.cow = false
				}
				got, pf := sp.as.Translate(va, ProtWrite)
				if pf != nil {
					t.Fatal(pf)
				}
				if got != pg.frame {
					t.Fatalf("write to va %#x: frame %#x, oracle %#x", va, got, pg.frame)
				}
			case kind == 4 && len(spaces) > 0:
				sp := spaces[arg%len(spaces)]
				child := &space{as: sp.as.Fork(), pages: map[uint64]*oraclePage{}}
				for vpn, pg := range sp.pages {
					o.incref(pg.frame)
					pg.cow = true
					child.pages[vpn] = &oraclePage{frame: pg.frame, cow: true}
				}
				spaces = append(spaces, child)
			case kind == 5 && len(spaces) > 0:
				i := arg % len(spaces)
				sp := spaces[i]
				sp.as.Release()
				vpns := make([]uint64, 0, len(sp.pages))
				for vpn := range sp.pages {
					vpns = append(vpns, vpn)
				}
				slices.Sort(vpns)
				for _, vpn := range vpns {
					o.decref(sp.pages[vpn].frame)
				}
				spaces = append(spaces[:i], spaces[i+1:]...)
			case kind == 7:
				spaces = append(spaces, &space{as: s.NewAddressSpace(), pages: map[uint64]*oraclePage{}})
			default:
				continue
			}
			check(fmt.Sprintf("op %d(%d)", kind, arg))
		}
		for i := 0; len(o.free) > 0; i++ {
			if got, want := s.Frames.alloc(), o.alloc(); got != want {
				t.Fatalf("draining, frame %d: %#x, oracle %#x", i, got, want)
			}
		}
		check("draining")
	})
}
