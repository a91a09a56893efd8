package cpu

import (
	"reflect"
	"testing"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// The data micro-TLB is a transparent cache of AddressSpace.Translate.
// These tests cover its invalidation contract directly through the CPU's
// capability-authorized access methods (the same paths guest loads and
// stores take): protection changes, unmap/remap, fork copy-on-write, and
// frames shared between address spaces.

func testDDC() cap.Capability { return cap.Root(0, 1<<40, cap.PermData) }

// TestMicroTLBProtectInvalidates: a cached write translation must die when
// mprotect removes write permission, and revive when it is restored.
func TestMicroTLBProtectInvalidates(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Protect(dataVA, vm.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	err := c.StoreVia(ddc, dataVA, 8, 0x22)
	pf, ok := err.(*vm.PageFault)
	if !ok || pf.Kind != vm.FaultProt {
		t.Fatalf("store after mprotect: want protection fault, got %v", err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0x11 {
		t.Fatalf("read-only page: got %#x, %v", v, err)
	}
	if err := c.AS.Protect(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, dataVA, 8, 0x33); err != nil {
		t.Fatalf("store after restoring write: %v", err)
	}
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 0x33 {
		t.Fatalf("got %#x, want 0x33", v)
	}
}

// TestMicroTLBReadEntryDoesNotAuthorizeWrite: an entry proven for reads
// must not satisfy a write on a read-only page (per-access-kind proofs).
func TestMicroTLBReadEntryDoesNotAuthorizeWrite(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	roVA := uint64(0x50000)
	if err := c.AS.Map(roVA, vm.PageSize, vm.ProtRead, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadVia(ddc, roVA, 8); err != nil {
		t.Fatal(err)
	}
	err := c.StoreVia(ddc, roVA, 8, 1)
	pf, ok := err.(*vm.PageFault)
	if !ok || pf.Kind != vm.FaultProt {
		t.Fatalf("write through read-proven entry: want protection fault, got %v", err)
	}
}

// TestMicroTLBUnmapRemap: unmap must fault subsequent accesses even with a
// warm entry; remapping the same address must observe the fresh
// demand-zero frame, not the cached translation of the old one.
func TestMicroTLBUnmapRemap(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0xAB); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Unmap(dataVA, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadVia(ddc, dataVA, 8); err == nil {
		t.Fatal("load of unmapped page served from stale TLB entry")
	}
	if err := c.AS.Map(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0 {
		t.Fatalf("remapped page: got %#x, %v; want demand-zero 0", v, err)
	}
}

// TestMicroTLBForkCOW: fork marks the parent's writable pages
// copy-on-write without replacing the page-table entries the TLB was
// filled from. A post-fork write through a warm TLB entry that skipped the
// COW copy would mutate the frame the child still shares — the Gen bump in
// Fork is what prevents it.
func TestMicroTLBForkCOW(t *testing.T) {
	m := mem.New(16 << 20)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy())
	ddc := testDDC()
	as1 := sys.NewAddressSpace()
	if err := as1.Map(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if err := c.StoreVia(ddc, dataVA, 8, 1); err != nil { // warm write entry
		t.Fatal(err)
	}
	as2 := as1.Fork()
	if err := c.StoreVia(ddc, dataVA, 8, 2); err != nil { // must COW first
		t.Fatal(err)
	}
	pa2, pf := as2.Translate(dataVA, vm.ProtRead)
	if pf != nil {
		t.Fatal(pf)
	}
	if v := m.Load(pa2, 8); v != 1 {
		t.Fatalf("child observed parent's post-fork write (%d): stale TLB entry bypassed COW", v)
	}
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 2 {
		t.Fatalf("parent lost its own write: got %d", v)
	}
}

// TestMicroTLBSharedFrames: two address spaces mapping the same frames see
// each other's writes immediately — per-AS TLB entries must not conflate
// the spaces even when the virtual pages collide in the direct-mapped
// array.
func TestMicroTLBSharedFrames(t *testing.T) {
	m := mem.New(16 << 20)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy())
	ddc := testDDC()
	frames := sys.AllocFrames(1)
	as1, as2 := sys.NewAddressSpace(), sys.NewAddressSpace()
	for _, as := range []*vm.AddressSpace{as1, as2} {
		if err := as.MapFrames(dataVA, frames, vm.ProtRead|vm.ProtWrite); err != nil {
			t.Fatal(err)
		}
	}
	// A private page at the same VA in as2: the direct-mapped slot for
	// dataVA is shared between the spaces, so this exercises replacement.
	privVA := uint64(dataVA + dtlbSize*vm.PageSize) // same TLB index as dataVA
	if err := as2.Map(privVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if err := c.StoreVia(ddc, dataVA, 8, 7); err != nil {
		t.Fatal(err)
	}
	c.AS = as2
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 7 {
		t.Fatalf("as2 shared view: got %#x, %v", v, err)
	}
	if err := c.StoreVia(ddc, privVA, 8, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, dataVA, 8, 8); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 8 {
		t.Fatalf("as1 missed as2's write through the shared frame: got %#x", v)
	}
	c.AS = as2
	if v, _ := c.LoadVia(ddc, privVA, 8); v != 9 {
		t.Fatalf("private page clobbered: got %#x", v)
	}
}

// TestMicroTLBSwap: swapping a page out must invalidate its cached
// translation; swap-in lands in a fresh frame the TLB must re-learn.
func TestMicroTLBSwap(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0x77); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.SwapOut(dataVA); err != nil {
		t.Fatal(err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0x77 {
		t.Fatalf("after swap round-trip: got %#x, %v", v, err)
	}
}

// TestThreadedMidRunSMC: a store inside a straight-line run that patches a
// later instruction of the *same page* must be observed by the very next
// fetch — the per-instruction generation re-check inside runBlock.
func TestThreadedMidRunSMC(t *testing.T) {
	exec := func(ref bool) (uint64, Stats) {
		c := newTestCPU(t)
		c.Reference = ref
		patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 42})
		prog := storeWordInsts(patched, codeVA+6*isa.InstSize)
		prog = append(prog,
			isa.Inst{Op: isa.NOP},                        // 5: straight-line filler
			isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1}, // 6: patch target
			isa.Inst{Op: isa.BREAK},                      // 7
		)
		load(t, c, prog)
		run(t, c)
		return c.X[2], c.Stats
	}
	gotOn, statsOn := exec(false)
	gotOff, statsOff := exec(true)
	if gotOn != 42 {
		t.Fatalf("threaded run executed stale instruction after mid-run patch: r2 = %d, want 42", gotOn)
	}
	if gotOff != gotOn || statsOn != statsOff {
		t.Fatalf("threaded on/off diverged: on r2=%d %+v, off r2=%d %+v", gotOn, statsOn, gotOff, statsOff)
	}
}

// TestThreadedLedgerFlushOnTrap: a trap in the middle of a block-threaded
// run must observe fully-flushed Stats — the kernel charges costs and
// reads the cycle clock at trap time, so a deferred ledger would skew
// simulated time. Compare the exact Stats at every trap against the
// unthreaded interpreter.
func TestThreadedLedgerFlushOnTrap(t *testing.T) {
	exec := func(ref bool) []Stats {
		c := newTestCPU(t)
		c.Reference = ref
		prog := []isa.Inst{
			{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1},
			{Op: isa.ADDI, Ra: 3, Rb: 0, Imm: 2},
			{Op: isa.SYSCALL}, // trap mid-page, mid-run
			{Op: isa.MUL, Ra: 4, Rb: 2, Rc: 3},
			{Op: isa.SYSCALL},
			{Op: isa.ADD, Ra: 5, Rb: 4, Rc: 2},
			{Op: isa.BREAK},
		}
		load(t, c, prog)
		var snaps []Stats
		for {
			tr := c.Run(0)
			if tr == nil {
				t.Fatal("budget expired unexpectedly")
			}
			snaps = append(snaps, c.Stats) // Stats as the kernel would see them
			if tr.Kind == TrapBreak {
				return snaps
			}
			if tr.Kind != TrapSyscall {
				t.Fatalf("unexpected trap %v", tr)
			}
			c.PC += isa.InstSize // kernel-style syscall completion
		}
	}
	on := exec(false)
	off := exec(true)
	if len(on) != len(off) {
		t.Fatalf("trap counts diverged: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("Stats at trap %d diverged:\n threaded: %+v\nunthreaded: %+v", i, on[i], off[i])
		}
	}
}

// TestThreadedBudgetBoundary: Run(max) must retire exactly max
// instructions whether the boundary lands inside a straight-line run or
// not — the scheduler's quantum accounting depends on it.
func TestThreadedBudgetBoundary(t *testing.T) {
	prog := make([]isa.Inst, 0, 40)
	for i := 0; i < 32; i++ {
		prog = append(prog, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1})
	}
	prog = append(prog, isa.Inst{Op: isa.BREAK})
	for max := uint64(1); max <= 8; max++ {
		var got [2]Stats
		for mode, ref := range []bool{false, true} {
			c := newTestCPU(t)
			c.Reference = ref
			load(t, c, prog)
			// Warm the decode latch so the threaded engine engages, then
			// reset the counters for a clean budget window.
			if tr := c.Run(2); tr != nil {
				t.Fatalf("warmup trapped: %v", tr)
			}
			c.PC = codeVA
			c.Stats = Stats{}
			if tr := c.Run(max); tr != nil {
				t.Fatalf("trapped inside budget: %v", tr)
			}
			if c.Stats.Instructions != max {
				t.Fatalf("reference=%v: retired %d instructions, budget %d", ref, c.Stats.Instructions, max)
			}
			got[mode] = c.Stats
		}
		if got[0] != got[1] {
			t.Fatalf("max=%d: budgeted Stats diverged:\n threaded: %+v\nunthreaded: %+v", max, got[0], got[1])
		}
	}
}

// tlbSlot returns the micro-TLB slot va maps to.
func tlbSlot(c *CPU, va uint64) *tlbEntry {
	return &c.tlb[(va>>vm.PageShift)&(dtlbSize-1)]
}

// TestTLBBackingOutlivesOtherChunks: chunk arrays never move once
// allocated, so a backing taken before other chunks materialize keeps
// serving loads and stores. A twin CPU runs the same accesses with its
// backing dropped before each one, so every access takes the slow path
// through mem.Physical; the two must agree on every loaded value, on the
// page's bytes, tags and write generation, and on the cycle count.
func TestTLBBackingOutlivesOtherChunks(t *testing.T) {
	fast, slow := newTestCPU(t), newTestCPU(t)
	ddc := testDDC()
	for _, c := range []*CPU{fast, slow} {
		if err := c.StoreVia(ddc, dataVA, 8, 0x1111); err != nil {
			t.Fatal(err)
		}
	}
	e := tlbSlot(fast, dataVA)
	if e.data == nil {
		t.Fatal("store left no backing")
	}
	backing := &e.data[0]
	// Materialize every chunk of the top MiB, far from the mapped frames.
	for _, c := range []*CPU{fast, slow} {
		for pa := c.Mem.Size() - 1<<20; pa < c.Mem.Size(); pa += mem.PageSize {
			c.Mem.Store(pa, 8, pa)
		}
	}
	if e.data == nil || &e.data[0] != backing {
		t.Fatal("materializing other chunks replaced the backing")
	}
	val := cap.Root(dataVA, 64, cap.PermData)
	for i := uint64(0); i < 96; i++ {
		// Each group of four accesses stores a capability, loads it back,
		// overwrites part of its granule with integer data and loads again.
		off := i / 4 * 40 % (vm.PageSize - 32) &^ 31
		size := uint64(1) << (i / 4 % 4)
		var got [2]uint64
		var caps [2]cap.Capability
		for k, c := range []*CPU{fast, slow} {
			if c == slow {
				se := tlbSlot(slow, dataVA)
				se.data, se.tags, se.pgen = nil, nil, nil
			}
			var err error
			r := c.newDataRun()
			switch i % 4 {
			case 0:
				err = c.store(&r, &ddc, dataVA+off, cap.Bytes, 0, &val)
			case 1, 3:
				if _, err = c.load(&r, &ddc, dataVA+off, cap.Bytes, 5); err == nil {
					caps[k] = c.C[5]
					got[k], err = c.LoadVia(ddc, dataVA+off, 8)
				}
			case 2:
				err = c.StoreVia(ddc, dataVA+off+size, size, i*0x0101010101010101)
			}
			c.settle(&r)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
		}
		if got[0] != got[1] || !reflect.DeepEqual(caps[0], caps[1]) {
			t.Fatalf("access %d: backed %#x %v, slow path %#x %v", i, got[0], caps[0], got[1], caps[1])
		}
		if i%4 == 1 && !caps[0].Tag() || i%4 == 3 && caps[0].Tag() {
			t.Fatalf("access %d: tag %v", i, caps[0].Tag())
		}
	}
	if e.data == nil || &e.data[0] != backing {
		t.Fatal("the accesses were not served from the original backing")
	}
	pa, pf := fast.AS.Translate(dataVA, vm.ProtRead)
	if pf != nil {
		t.Fatal(pf)
	}
	page := func(c *CPU) ([]byte, []bool, uint64) {
		b := make([]byte, vm.PageSize)
		c.Mem.ReadBytes(pa, b)
		return b, c.Mem.ExtractTags(pa, vm.PageSize), c.Mem.PageGen(pa)
	}
	fb, ft, fg := page(fast)
	sb, st, sg := page(slow)
	if !reflect.DeepEqual(fb, sb) || !reflect.DeepEqual(ft, st) || fg != sg {
		t.Fatalf("page diverged: generations %d vs %d, bytes equal %v, tags equal %v",
			fg, sg, reflect.DeepEqual(fb, sb), reflect.DeepEqual(ft, st))
	}
	if fast.Stats.Cycles != slow.Stats.Cycles {
		t.Fatalf("cycles: backed %d, slow path %d", fast.Stats.Cycles, slow.Stats.Cycles)
	}
}

// TestTLBBackingFollowsTranslation: a backing belongs to the translation
// it was filled under. When the slot is refilled for another page (a
// direct-mapped collision) or another generation (unmap and remap onto a
// fresh frame), the old page's arrays must go with the old proof, or a
// later hit would read the wrong frame.
func TestTLBBackingFollowsTranslation(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	other := uint64(dataVA + dtlbSize*vm.PageSize) // same slot as dataVA
	if err := c.AS.Map(other, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, dataVA, 8, 0xA); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, other, 8, 0xB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second round hits the refilled slot
		for _, p := range []struct{ va, want uint64 }{{dataVA, 0xA}, {other, 0xB}, {other, 0xB}} {
			if v, err := c.LoadVia(ddc, p.va, 8); err != nil || v != p.want {
				t.Fatalf("round %d, va %#x: got %#x, %v; want %#x", i, p.va, v, err, p.want)
			}
		}
	}
	if err := c.AS.Unmap(dataVA, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Map(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0 {
			t.Fatalf("remapped page, load %d: got %#x, %v; want demand-zero 0", i, v, err)
		}
	}
}

// TestTLBFastCLCStripsTag: a CLC served from a backed entry still strips
// the tag when the authority lacks PermLoadCap, and keeps it otherwise.
func TestTLBFastCLCStripsTag(t *testing.T) {
	c := newTestCPU(t)
	// Code first: translating the code pages resolves demand-zero faults,
	// which bump AS.Gen and would drop the warm entry below.
	load(t, c, []isa.Inst{
		{Op: isa.CLC, Ra: 5, Rb: 6, Imm: 0}, // no PermLoadCap: tag stripped
		{Op: isa.CLC, Ra: 7, Rb: 3, Imm: 0}, // full authority: tag kept
		{Op: isa.BREAK},
	})
	full := cap.Root(dataVA, vm.PageSize, cap.PermData)
	val := cap.Root(dataVA+128, 32, cap.PermData)
	if err := c.StoreCapVia(full, dataVA, val); err != nil {
		t.Fatal(err)
	}
	// The store proves the page for writes only; one load adds the read
	// proof the fast path checks.
	if _, err := c.LoadCapVia(full, dataVA); err != nil {
		t.Fatal(err)
	}
	if e := tlbSlot(c, dataVA); e.data == nil || e.prot&vm.ProtRead == 0 {
		t.Fatal("no read-proven backing; the CLCs below would not take the fast path")
	}
	c.C[3] = full
	c.C[6] = full.ClearPerms(cap.PermLoadCap)
	run(t, c)
	if c.C[5].Tag() {
		t.Fatal("tag crossed a no-LoadCap authority on the fast path")
	}
	if c.C[5].Addr() != val.Addr() {
		t.Fatalf("address bits lost: %#x", c.C[5].Addr())
	}
	if !c.C[7].Equal(val) {
		t.Fatalf("full-authority CLC: got %v, want %v", c.C[7], val)
	}
}

// TestTLBCapAccessFaultOrder: every CLC/CSC fault raises exactly the trap
// the reference LoadCapVia/StoreCapVia sequence produces — alignment
// first, then tag, seal, permissions and bounds, then the page fault —
// with the data page's entry warm and backed so the fast path is probed.
func TestTLBCapAccessFaultOrder(t *testing.T) {
	const unmapped = dataVA + 5*vm.PageSize // past the 4 mapped data pages
	wide := cap.Root(dataVA, 8*vm.PageSize, cap.PermData)
	at := func(c cap.Capability, va uint64) cap.Capability { return cap.SetAddr(c, va) }
	sealer := at(cap.Root(0, 1<<10, cap.PermSeal), 5)
	sealed, err := wide.Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	local := cap.Root(dataVA, 64, cap.PermData&^cap.PermGlobal)
	cases := []struct {
		name  string
		op    isa.Op
		auth  cap.Capability
		val   cap.Capability
		kind  TrapKind
		cause cap.FaultCause
	}{
		{"clc misaligned", isa.CLC, at(wide, dataVA+8), cap.Null(), TrapAlignment, 0},
		{"clc misaligned untagged", isa.CLC, at(wide.ClearTag(), dataVA+8), cap.Null(), TrapAlignment, 0},
		{"clc misaligned unmapped", isa.CLC, at(wide, unmapped+8), cap.Null(), TrapAlignment, 0},
		{"clc untagged", isa.CLC, at(wide.ClearTag(), dataVA), cap.Null(), TrapCapFault, cap.FaultTag},
		{"clc sealed", isa.CLC, sealed, cap.Null(), TrapCapFault, cap.FaultSeal},
		{"clc no load", isa.CLC, at(wide.ClearPerms(cap.PermLoad), dataVA), cap.Null(), TrapCapFault, cap.FaultPermLoad},
		{"clc bounds", isa.CLC, at(cap.Root(dataVA, 32, cap.PermData), dataVA+32), cap.Null(), TrapCapFault, cap.FaultBounds},
		{"clc bounds before page fault", isa.CLC, at(cap.Root(unmapped-32, 32, cap.PermData), unmapped), cap.Null(), TrapCapFault, cap.FaultBounds},
		{"clc page fault", isa.CLC, at(wide, unmapped), cap.Null(), TrapPageFault, 0},
		{"csc misaligned", isa.CSC, at(wide, dataVA+8), wide, TrapAlignment, 0},
		{"csc misaligned untagged", isa.CSC, at(wide.ClearTag(), dataVA+8), wide, TrapAlignment, 0},
		{"csc untagged", isa.CSC, at(wide.ClearTag(), dataVA), wide, TrapCapFault, cap.FaultTag},
		{"csc sealed", isa.CSC, sealed, wide, TrapCapFault, cap.FaultSeal},
		{"csc no store", isa.CSC, at(wide.ClearPerms(cap.PermStore), dataVA), wide, TrapCapFault, cap.FaultPermStore},
		{"csc no storecap", isa.CSC, at(wide.ClearPerms(cap.PermStoreCap), dataVA), wide, TrapCapFault, cap.FaultPermStoreCap},
		{"csc no storelocal", isa.CSC, at(wide.ClearPerms(cap.PermStoreLocalCap), dataVA), local, TrapCapFault, cap.FaultPermLoad},
		{"csc bounds", isa.CSC, at(cap.Root(dataVA, 32, cap.PermData), dataVA+32), wide, TrapCapFault, cap.FaultBounds},
		{"csc page fault", isa.CSC, at(wide, unmapped), wide, TrapPageFault, 0},
	}
	warm := func(c *CPU) {
		if err := c.StoreCapVia(wide, dataVA, wide); err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadCapVia(wide, dataVA); err != nil {
			t.Fatal(err)
		}
		e := tlbSlot(c, dataVA)
		if e.data == nil || e.prot&(vm.ProtRead|vm.ProtWrite) != vm.ProtRead|vm.ProtWrite {
			t.Fatal("warm-up left no read- and write-proven backing")
		}
	}
	for _, tc := range cases {
		in := isa.Inst{Op: tc.op, Ra: 4, Rb: 3}
		c := newTestCPU(t)
		load(t, c, []isa.Inst{in, {Op: isa.BREAK}}) // before warm: see TestTLBFastCLCStripsTag
		warm(c)
		c.C[3], c.C[4] = tc.auth, tc.val
		got := c.Run(10)

		ref := newTestCPU(t)
		load(t, ref, []isa.Inst{in, {Op: isa.BREAK}})
		warm(ref)
		ea := tc.auth.Addr()
		if tc.op == isa.CLC {
			_, err = ref.LoadCapVia(tc.auth, ea)
		} else {
			err = ref.StoreCapVia(tc.auth, ea, tc.val)
		}
		if err == nil {
			t.Fatalf("%s: reference access did not fault", tc.name)
		}
		want := ref.accessTrap(in, err)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: trap\n got %v\nwant %v", tc.name, got, want)
		}
		if got.Kind != tc.kind || (got.Kind == TrapCapFault && got.Cap.Cause != tc.cause) {
			t.Fatalf("%s: trap %v, want kind %v cause %v", tc.name, got, tc.kind, tc.cause)
		}
		if c.Stats.CapLoads != 0 || c.Stats.CapStores != 0 {
			t.Fatalf("%s: faulting access counted: %+v", tc.name, c.Stats)
		}
	}
}

// TestTLBFastCSCStoreLocal: a tagged non-global capability cannot be
// stored through an authority without PermStoreLocalCap, even with the
// page's writable backing warm; the page keeps its bytes and tag. A
// global one stores.
func TestTLBFastCSCStoreLocal(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{ // before warm: see TestTLBFastCLCStripsTag
		{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 0},
		{Op: isa.BREAK},
	})
	auth := cap.Root(dataVA, vm.PageSize, cap.PermData&^cap.PermStoreLocalCap)
	if err := c.StoreVia(auth, dataVA+64, 8, 1); err != nil {
		t.Fatal(err)
	}
	if e := tlbSlot(c, dataVA); e.data == nil {
		t.Fatal("warm-up left no backing")
	}
	c.C[3] = auth
	c.C[4] = cap.Root(dataVA, 64, cap.PermData&^cap.PermGlobal)
	c.C[5] = cap.Root(dataVA, 64, cap.PermData)
	tr := c.Run(10)
	if tr == nil || tr.Kind != TrapCapFault {
		t.Fatalf("local store without PermStoreLocalCap: want capability fault, got %v", tr)
	}
	pa, _ := c.AS.Translate(dataVA, vm.ProtRead)
	if c.Mem.Tag(pa) || c.Mem.Load(pa, 8) != 0 {
		t.Fatal("faulting CSC changed memory")
	}
	if err := c.StoreCapVia(auth, dataVA, c.C[5]); err != nil {
		t.Fatalf("global store: %v", err)
	}
	if !c.Mem.Tag(pa) {
		t.Fatal("global store lost its tag")
	}
}

// TestThreadedMidRunCSCSMC: a CSC served from the writable backing of the
// executing page must bump that page's generation, so the threaded
// engine's probe re-decodes before the patched instruction runs. The
// stored capability is untagged; its cursor bytes encode the new
// instructions.
func TestThreadedMidRunCSCSMC(t *testing.T) {
	exec := func(ref bool) (uint64, Stats) {
		c := newTestCPU(t)
		c.Reference = ref
		patch := uint64(isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 42})) |
			uint64(isa.MustEncode(isa.Inst{Op: isa.BREAK}))<<32
		c.C[3] = cap.Root(codeVA, vm.PageSize, cap.PermData)
		c.C[4] = cap.NullWithAddr(patch)
		load(t, c, []isa.Inst{
			{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 48}, // 0: warm-up store past the BREAK
			{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 32}, // 1: patch slots 8-11 (fast path)
			{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
			{Op: isa.NOP}, {Op: isa.NOP}, {Op: isa.NOP},
			{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1}, // 8: patch target
			{Op: isa.BREAK},                      // 9
		})
		run(t, c)
		return c.X[2], c.Stats
	}
	gotOn, statsOn := exec(false)
	gotOff, statsOff := exec(true)
	if gotOn != 42 {
		t.Fatalf("threaded run executed a stale instruction after a CSC patch: r2 = %d, want 42", gotOn)
	}
	if gotOff != gotOn || statsOn != statsOff {
		t.Fatalf("threaded on/off diverged: on r2=%d %+v, off r2=%d %+v", gotOn, statsOn, gotOff, statsOff)
	}
}

// TestThreadedDataHitsFlushedBeforeTrap: a run counts its L1D way-0 hits
// and applies them when it ends, so a trap must surface with them
// applied. The loop below hits one backed page (after its first pass)
// and then stores into a read-only page whose entry holds a read proof
// and a backing: the hit test must decline the store, which takes the
// protection fault, and at that trap the fast engine's Stats and cache
// counters must be the reference's.
func TestThreadedDataHitsFlushedBeforeTrap(t *testing.T) {
	const roVA = 0x44000 // LUI-reachable, and its micro-TLB slot is no code page's
	prog := []isa.Inst{
		{Op: isa.LUI, Ra: 8, Imm: dataVA >> 14},
		{Op: isa.LUI, Ra: 9, Imm: roVA >> 14},
		{Op: isa.ADDI, Ra: 10, Rb: 0, Imm: 40},
		{Op: isa.SD, Ra: 10, Rb: 8, Imm: 0},  // 3: loop: a store hit after the first pass
		{Op: isa.LD, Ra: 2, Rb: 8, Imm: 8},   // a load hit
		{Op: isa.CLD, Ra: 3, Rb: 3, Imm: 16}, // a capability-relative load hit
		{Op: isa.CSC, Ra: 3, Rb: 3, Imm: 32}, // a capability store hit
		{Op: isa.CLC, Ra: 4, Rb: 3, Imm: 32}, // a capability load hit
		{Op: isa.LD, Ra: 5, Rb: 9, Imm: 0},   // proves the read-only page for reads
		{Op: isa.ADDI, Ra: 10, Rb: 10, Imm: -1},
		{Op: isa.BNE, Ra: 10, Rb: 0, Imm: -7},
		{Op: isa.SD, Ra: 10, Rb: 9, Imm: 0}, // the protection fault
		{Op: isa.BREAK},
	}
	runTiers(t, tierCase{
		prog: prog,
		setup: func(c *CPU) {
			c.C[3] = cap.Root(dataVA, vm.PageSize, cap.PermData)
			if err := c.AS.Map(roVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
				t.Fatal(err)
			}
			if err := c.StoreVia(testDDC(), roVA, 8, 7); err != nil {
				t.Fatal(err)
			}
			if err := c.AS.Protect(roVA, vm.PageSize, vm.ProtRead); err != nil {
				t.Fatal(err)
			}
		},
		drive: func(t *testing.T, c *CPU) *Trap { return c.Run(0) },
		check: func(t *testing.T, c *CPU, tr *Trap) {
			if tr == nil || tr.Kind != TrapPageFault || tr.PC != codeVA+11*isa.InstSize {
				t.Fatalf("%v: trap %v, want the page fault of the store at %#x", engineName(c), tr, codeVA+11*isa.InstSize)
			}
			if e := tlbSlot(c, roVA); e.data == nil || e.prot != vm.ProtRead {
				t.Fatalf("%v: read-only page's entry has prot %v, backing %v; want a backed read proof", engineName(c), e.prot, e.data != nil)
			}
			if c.Stats.Loads != 120 || c.Stats.Stores != 40 || c.Stats.CapLoads != 40 || c.Stats.CapStores != 40 {
				t.Fatalf("%v: Stats %+v", engineName(c), c.Stats)
			}
		},
	})
}
