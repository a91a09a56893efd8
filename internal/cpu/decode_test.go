package cpu

import (
	"testing"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// storeWordInsts assembles "store the 32-bit instruction word w at
// dataReg-relative address va" using LUI/ORI to build the word in r9.
// The word is stored through DDC with SW.
func storeWordInsts(w uint32, va uint64) []isa.Inst {
	// LUI(19-bit imm)<<14 | ORI(14-bit imm) reconstructs at most 33 bits.
	if va>>33 != 0 {
		panic("va does not survive LUI/ORI reconstruction")
	}
	return []isa.Inst{
		{Op: isa.LUI, Ra: 9, Imm: int32(w >> 14)},
		{Op: isa.ORI, Ra: 9, Rb: 9, Imm: int32(w & 0x3FFF)},
		{Op: isa.LUI, Ra: 8, Imm: int32(va >> 14)},
		{Op: isa.ORI, Ra: 8, Rb: 8, Imm: int32(va & 0x3FFF)},
		{Op: isa.SW, Ra: 9, Rb: 8, Imm: 0},
	}
}

// TestSelfModifyingCodeObservesNewBytes patches an instruction on a page
// that has already been decoded (the whole page is decoded on first fetch)
// and checks execution sees the new bytes. Run on the fast engine and the
// reference, asserting identical architectural results.
func TestSelfModifyingCodeObservesNewBytes(t *testing.T) {
	run := func(ref bool) (uint64, Stats) {
		c := newTestCPU(t)
		c.Reference = ref
		patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 42})
		prog := storeWordInsts(patched, codeVA+5*isa.InstSize)
		prog = append(prog,
			isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1}, // patch target (slot 5)
			isa.Inst{Op: isa.BREAK},
		)
		load(t, c, prog)
		run(t, c)
		return c.X[2], c.Stats
	}
	gotOn, statsOn := run(false)
	gotOff, statsOff := run(true)
	if gotOn != 42 {
		t.Fatalf("decode cache served stale instruction: r2 = %d, want 42", gotOn)
	}
	if gotOff != gotOn || statsOn != statsOff {
		t.Fatalf("fast/reference diverged: on r2=%d %+v, off r2=%d %+v", gotOn, statsOn, gotOff, statsOff)
	}
}

// TestSelfModifyingCodeAfterExecution executes an instruction, loops back,
// patches it, and re-executes it — the already-hit fast path must observe
// the store.
func TestSelfModifyingCodeAfterExecution(t *testing.T) {
	c := newTestCPU(t)
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 100})
	// r4 counts passes. Pass 1 executes the original target (r2 += 1) and
	// patches it; pass 2 executes the patched target (r2 += 100).
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: pass++
		{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1}, // 1: patch target
	}
	prog = append(prog, storeWordInsts(patched, codeVA+1*isa.InstSize)...) // 2..6
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 7: limit
		isa.Inst{Op: isa.BLT, Ra: 4, Rb: 5, Imm: -8}, // 8: loop while pass < 2
		isa.Inst{Op: isa.BREAK},                      // 9
	)
	load(t, c, prog)
	run(t, c)
	if c.X[2] != 101 {
		t.Fatalf("r2 = %d, want 101 (1 from pass 1, 100 from patched pass 2)", c.X[2])
	}
	if c.DecodeStats.Decodes < 2 {
		t.Fatalf("expected a redecode after the patch, decode stats: %+v", c.DecodeStats)
	}
}

// TestUnmapRemapInvalidates replaces the mapping under an executed page
// (fresh frame, different code at the same virtual address) and checks the
// CPU does not execute stale decoded instructions.
func TestUnmapRemapInvalidates(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 7},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[2] != 7 {
		t.Fatalf("first program: r2 = %d", c.X[2])
	}

	// mmap MAP_FIXED-style replacement: same VA, new demand-zero pages.
	if err := c.AS.Map(codeVA, 4*vm.PageSize, vm.ProtRead|vm.ProtExec|vm.ProtWrite, true); err != nil {
		t.Fatal(err)
	}
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 9},
		{Op: isa.BREAK},
	})
	c.PC = codeVA
	run(t, c)
	if c.X[2] != 9 {
		t.Fatalf("remapped program: r2 = %d, want 9 (stale decode cache?)", c.X[2])
	}
}

// TestProtectRemovingExecFaults models mprotect(PROT_READ): even with a
// valid decoded block for the page, the next fetch must raise a protection
// page fault, and restoring PROT_EXEC must make it runnable again.
func TestProtectRemovingExecFaults(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 3},
		{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 4},
		{Op: isa.BREAK},
	})
	// Decode the page.
	run(t, c)
	if c.X[2] != 7 {
		t.Fatalf("r2 = %d", c.X[2])
	}

	if err := c.AS.Protect(codeVA, vm.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	c.PC = codeVA
	tr := c.Run(10)
	if tr == nil || tr.Kind != TrapPageFault || tr.Page.Kind != vm.FaultProt {
		t.Fatalf("want protection fault after mprotect, got %v", tr)
	}

	if err := c.AS.Protect(codeVA, vm.PageSize, vm.ProtRead|vm.ProtExec|vm.ProtWrite); err != nil {
		t.Fatal(err)
	}
	c.PC = codeVA
	c.X[2] = 0
	run(t, c)
	if c.X[2] != 7 {
		t.Fatalf("after restoring exec: r2 = %d", c.X[2])
	}
}

// TestSyncICacheDropsBlocks checks the explicit flush half of the
// invalidation protocol.
func TestSyncICacheDropsBlocks(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{{Op: isa.BREAK}})
	run(t, c)
	if c.DecodeStats.Decodes == 0 {
		t.Fatal("no page was decoded")
	}
	c.SyncICache()
	if c.decoded != nil || c.latch.page != nil {
		t.Fatal("SyncICache left state behind")
	}
	c.PC = codeVA
	run(t, c) // must re-decode, not crash
	if c.DecodeStats.Flushes != 1 {
		t.Fatalf("flush count: %+v", c.DecodeStats)
	}
}

// TestMisalignedPCBypassesCache: a misaligned PC fetches the word at the
// raw (unaligned) address, which is not one of the page's decoded slots,
// so fetchInst must decode it directly. Both engines must execute the
// exact same straddled bytes.
func TestMisalignedPCBypassesCache(t *testing.T) {
	exec := func(ref bool) (Stats, [isa.NumRegs]uint64, TrapKind) {
		c := newTestCPU(t)
		c.Reference = ref
		load(t, c, []isa.Inst{
			{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1},
			{Op: isa.BREAK},
		})
		// Prime the page's decoded block, then jump mid-instruction.
		run(t, c)
		c.PC = codeVA + 2
		tr := c.Run(20)
		kind := TrapKind(-1)
		if tr != nil {
			kind = tr.Kind
		}
		return c.Stats, c.X, kind
	}
	sOn, xOn, kOn := exec(false)
	sOff, xOff, kOff := exec(true)
	if sOn != sOff || xOn != xOff || kOn != kOff {
		t.Fatalf("misaligned execution diverged:\n on: trap=%v %+v\noff: trap=%v %+v", kOn, sOn, kOff, sOff)
	}
}

// TestDecodeCacheDifferentialSmoke runs a branchy, self-patching program
// on both engines and requires bit-identical Stats and registers.
func TestDecodeCacheDifferentialSmoke(t *testing.T) {
	exec := func(ref bool) (Stats, [isa.NumRegs]uint64) {
		c := newTestCPU(t)
		c.Reference = ref
		patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 6, Rb: 6, Imm: 5})
		prog := []isa.Inst{
			{Op: isa.ADDI, Ra: 4, Rb: 0, Imm: 1},  // i = 1
			{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 50}, // limit
			{Op: isa.ADD, Ra: 2, Rb: 2, Rc: 4},    // loop: sum += i
			{Op: isa.ADDI, Ra: 6, Rb: 6, Imm: 1},  // patch target
			{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1},  // i++
		}
		prog = append(prog, storeWordInsts(patched, codeVA+3*isa.InstSize)...)
		prog = append(prog,
			isa.Inst{Op: isa.BGE, Ra: 5, Rb: 4, Imm: -8}, // while limit >= i
			isa.Inst{Op: isa.BREAK},
		)
		load(t, c, prog)
		run(t, c)
		return c.Stats, c.X
	}
	sOn, xOn := exec(false)
	sOff, xOff := exec(true)
	if sOn != sOff {
		t.Fatalf("stats diverged:\n on: %+v\noff: %+v", sOn, sOff)
	}
	if xOn != xOff {
		t.Fatalf("registers diverged:\n on: %v\noff: %v", xOn, xOff)
	}
}

// TestDecodeCacheSharedFrames: two address spaces mapping the same frames
// (shared text) may both use the same decoded block; a write through one
// mapping must invalidate what the other executes.
func TestDecodeCacheSharedFrames(t *testing.T) {
	m := mem.New(16 << 20)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy())
	frames := sys.AllocFrames(1)

	as1 := sys.NewAddressSpace()
	as2 := sys.NewAddressSpace()
	for _, as := range []*vm.AddressSpace{as1, as2} {
		if err := as.MapFrames(codeVA, frames, vm.ProtRead|vm.ProtWrite|vm.ProtExec); err != nil {
			t.Fatal(err)
		}
	}
	write := func(as *vm.AddressSpace, idx int, in isa.Inst) {
		pa, pf := as.Translate(codeVA+uint64(idx)*isa.InstSize, vm.ProtWrite)
		if pf != nil {
			t.Fatal(pf)
		}
		m.Store(pa, isa.InstSize, uint64(isa.MustEncode(in)))
	}
	write(as1, 0, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 11})
	write(as1, 1, isa.Inst{Op: isa.BREAK})

	runAS := func(as *vm.AddressSpace) uint64 {
		c.AS = as
		c.PCC = cap.Root(codeVA, vm.PageSize, cap.PermCode)
		c.DDC = cap.Null()
		c.PC = codeVA
		tr := c.Run(100)
		if tr == nil || tr.Kind != TrapBreak {
			t.Fatalf("unexpected trap %v", tr)
		}
		return c.X[2]
	}
	if got := runAS(as1); got != 11 {
		t.Fatalf("as1: r2 = %d", got)
	}
	if got := runAS(as2); got != 11 {
		t.Fatalf("as2: r2 = %d", got)
	}
	// Patch through as2; as1's next execution must see it.
	write(as2, 0, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 13})
	if got := runAS(as1); got != 13 {
		t.Fatalf("as1 after cross-AS patch: r2 = %d (stale shared block?)", got)
	}
}
