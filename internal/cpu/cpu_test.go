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

const (
	codeVA  = 0x10000
	dataVA  = 0x20000
	stackVA = 0x30000
)

func newTestCPU(t *testing.T) *CPU {
	t.Helper()
	m := mem.New(16 << 20)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy())
	c.AS = sys.NewAddressSpace()
	if err := c.AS.Map(codeVA, 4*vm.PageSize, vm.ProtRead|vm.ProtExec|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Map(dataVA, 4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Map(stackVA, 4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.PCC = cap.Root(codeVA, 4*vm.PageSize, cap.PermCode|cap.PermSystemRegs)
	c.DDC = cap.Root(0, 1<<40, cap.PermData)
	c.C[isa.CSP] = cap.Root(stackVA, 4*vm.PageSize, cap.PermData)
	c.PC = codeVA
	return c
}

// load assembles insts into the code region starting at codeVA.
func load(t *testing.T, c *CPU, insts []isa.Inst) {
	t.Helper()
	for i, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("inst %d (%v): %v", i, in, err)
		}
		va := uint64(codeVA) + uint64(i)*isa.InstSize
		pa, pf := c.AS.Translate(va, vm.ProtWrite)
		if pf != nil {
			t.Fatal(pf)
		}
		c.Mem.Store(pa, isa.InstSize, uint64(w))
	}
}

// run executes until the first trap and asserts it is a BREAK.
func run(t *testing.T, c *CPU) {
	t.Helper()
	tr := c.Run(1_000_000)
	if tr == nil {
		t.Fatal("instruction budget expired")
	}
	if tr.Kind != TrapBreak {
		t.Fatalf("unexpected trap: %v", tr)
	}
}

func TestArithmetic(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 0, Imm: 21},
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2},
		{Op: isa.MUL, Ra: 2, Rb: 4, Rc: 5},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[2] != 42 {
		t.Fatalf("r2 = %d, want 42", c.X[2])
	}
}

func TestLoopSum(t *testing.T) {
	c := newTestCPU(t)
	// sum = 0; for i = 1; i <= 10; i++ { sum += i }
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 0, Imm: 1},  // i = 1
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 10}, // limit
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 0},  // sum = 0
		{Op: isa.ADD, Ra: 2, Rb: 2, Rc: 4},    // loop: sum += i
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1},  // i++
		{Op: isa.BGE, Ra: 5, Rb: 4, Imm: -2},  // if limit >= i goto loop
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[2] != 55 {
		t.Fatalf("sum = %d, want 55", c.X[2])
	}
	if c.Stats.Branches == 0 || c.Stats.Taken == 0 {
		t.Fatalf("branch stats not counted: %+v", c.Stats)
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 0, Rb: 0, Imm: 99},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[0] != 0 {
		t.Fatal("r0 was written")
	}
}

func TestLegacyLoadStoreViaDDC(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.LUI, Ra: 8, Imm: dataVA >> 14}, // r8 = dataVA
		{Op: isa.ADDI, Ra: 9, Rb: 0, Imm: 1234},
		{Op: isa.SD, Ra: 9, Rb: 8, Imm: 8},
		{Op: isa.LD, Ra: 2, Rb: 8, Imm: 8},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[2] != 1234 {
		t.Fatalf("r2 = %d", c.X[2])
	}
}

func TestNullDDCBlocksLegacyAccess(t *testing.T) {
	c := newTestCPU(t)
	c.DDC = cap.Null() // CheriABI: all memory access must be intentional
	load(t, c, []isa.Inst{
		{Op: isa.LUI, Ra: 8, Imm: dataVA >> 14},
		{Op: isa.LD, Ra: 2, Rb: 8, Imm: 0},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapCapFault || tr.Cap.Cause != cap.FaultTag {
		t.Fatalf("want tag fault through NULL DDC, got %v", tr)
	}
}

func TestCapLoadStoreBounded(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 64, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 9, Rb: 0, Imm: -7},
		{Op: isa.CSD, Ra: 9, Rb: 3, Imm: 16},
		{Op: isa.CLD, Ra: 2, Rb: 3, Imm: 16},
		{Op: isa.CLW, Ra: 10, Rb: 3, Imm: 16}, // sign-extending word load
		{Op: isa.BREAK},
	})
	run(t, c)
	if int64(c.X[2]) != -7 {
		t.Fatalf("r2 = %d", int64(c.X[2]))
	}
	if int64(c.X[10]) != -7 {
		t.Fatalf("clw sign extension: %d", int64(c.X[10]))
	}
}

func TestCapBoundsViolationTraps(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 64, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.CLD, Ra: 2, Rb: 3, Imm: 64}, // one byte past the top
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapCapFault || tr.Cap.Cause != cap.FaultBounds {
		t.Fatalf("want bounds fault, got %v", tr)
	}
	if tr.PC != codeVA {
		t.Fatalf("trap PC = %x, want %x (precise exception)", tr.PC, codeVA)
	}
}

func TestCapabilityRoundTripThroughMemory(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 4096, cap.PermData)
	c.C[4] = cap.Root(dataVA+128, 32, cap.PermRO)
	load(t, c, []isa.Inst{
		{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 16},
		{Op: isa.CLC, Ra: 5, Rb: 3, Imm: 16},
		{Op: isa.BREAK},
	})
	run(t, c)
	if !c.C[5].Equal(c.C[4]) {
		t.Fatalf("capability corrupted:\n in: %v\nout: %v", c.C[4], c.C[5])
	}
	if c.Stats.CapLoads != 1 || c.Stats.CapStores != 1 {
		t.Fatalf("cap access stats: %+v", c.Stats)
	}
}

func TestDataStoreClearsStoredCapTag(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 4096, cap.PermData)
	c.C[4] = cap.Root(dataVA+128, 32, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 16}, // store capability
		{Op: isa.ADDI, Ra: 9, Rb: 0, Imm: 1},
		{Op: isa.CSD, Ra: 9, Rb: 3, Imm: 24}, // overwrite half of it with data
		{Op: isa.CLC, Ra: 5, Rb: 3, Imm: 16}, // reload
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.C[5].Tag() {
		t.Fatal("tag survived a data overwrite: capability forged")
	}
}

func TestLoadCapWithoutPermLoadCapStripsTag(t *testing.T) {
	c := newTestCPU(t)
	full := cap.Root(dataVA, 4096, cap.PermData)
	c.C[3] = full
	c.C[4] = cap.Root(dataVA+128, 32, cap.PermData)
	c.C[6] = full.ClearPerms(cap.PermLoadCap)
	load(t, c, []isa.Inst{
		{Op: isa.CSC, Ra: 4, Rb: 3, Imm: 0},
		{Op: isa.CLC, Ra: 5, Rb: 6, Imm: 0}, // load via no-loadcap authority
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.C[5].Tag() {
		t.Fatal("tag crossed a no-LoadCap capability")
	}
	if c.C[5].Addr() != c.C[4].Addr() {
		t.Fatal("address bits should still arrive")
	}
}

func TestCSetBoundsTrapsOnWiden(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 64, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 8, Rb: 0, Imm: 128}, // length 128 > 64
		{Op: isa.CSETBNDS, Ra: 4, Rb: 3, Rc: 8},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapCapFault || tr.Cap.Cause != cap.FaultLength {
		t.Fatalf("want length fault, got %v", tr)
	}
}

func TestCapFunctionCall(t *testing.T) {
	c := newTestCPU(t)
	// main: cjalr c17, c12 ; break     callee at codeVA+0x100: addi r2,r0,7 ; cjr c17
	target := cap.SetAddr(c.PCC, codeVA+0x100)
	c.C[12] = target
	load(t, c, []isa.Inst{
		{Op: isa.CJALR, Ra: 17, Rb: 12},
		{Op: isa.BREAK},
	})
	callee := []isa.Inst{
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 7},
		{Op: isa.CJR, Ra: 17},
	}
	for i, in := range callee {
		pa, _ := c.AS.Translate(codeVA+0x100+uint64(i)*4, vm.ProtWrite)
		c.Mem.Store(pa, 4, uint64(isa.MustEncode(in)))
	}
	run(t, c)
	if c.X[2] != 7 {
		t.Fatalf("r2 = %d", c.X[2])
	}
	if !c.C[17].Tag() || c.C[17].Addr() != codeVA+4 {
		t.Fatalf("link capability wrong: %v", c.C[17])
	}
}

func TestExecuteOutsidePCCBoundsTraps(t *testing.T) {
	c := newTestCPU(t)
	c.PCC = cap.Root(codeVA, 8, cap.PermCode) // only two instructions
	load(t, c, []isa.Inst{
		{Op: isa.NOP},
		{Op: isa.NOP},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapCapFault || tr.Cap.Cause != cap.FaultBounds {
		t.Fatalf("want fetch bounds fault, got %v", tr)
	}
}

func TestSyscallTrap(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 42},
		{Op: isa.SYSCALL},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapSyscall {
		t.Fatalf("want syscall trap, got %v", tr)
	}
	if c.X[2] != 42 {
		t.Fatal("syscall number lost")
	}
	// Kernel resumes after the syscall instruction.
	c.PC = tr.PC + isa.InstSize
	run(t, c)
}

func TestNCallTrap(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.NCALL, Imm: 17},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapNCall || tr.NCall != 17 {
		t.Fatalf("want ncall 17, got %v", tr)
	}
}

func TestMisalignedAccessTraps(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 64, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.CLD, Ra: 2, Rb: 3, Imm: 4}, // 8-byte load at offset 4
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapAlignment {
		t.Fatalf("want alignment trap, got %v", tr)
	}
}

func TestUnmappedAccessPageFaults(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(0x900000, 64, cap.PermData) // valid cap, no mapping
	load(t, c, []isa.Inst{
		{Op: isa.CLD, Ra: 2, Rb: 3, Imm: 0},
		{Op: isa.BREAK},
	})
	tr := c.Run(100)
	if tr == nil || tr.Kind != TrapPageFault {
		t.Fatalf("want page fault, got %v", tr)
	}
}

func TestCGetters(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 256, cap.PermRO)
	load(t, c, []isa.Inst{
		{Op: isa.CGETBASE, Ra: 8, Rb: 3},
		{Op: isa.CGETLEN, Ra: 9, Rb: 3},
		{Op: isa.CGETTAG, Ra: 10, Rb: 3},
		{Op: isa.CGETPERM, Ra: 11, Rb: 3},
		{Op: isa.CGETADDR, Ra: 12, Rb: 3},
		{Op: isa.CINCOFFI, Ra: 4, Rb: 3, Imm: 8},
		{Op: isa.CGETOFF, Ra: 13, Rb: 4},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[8] != dataVA || c.X[9] != 256 || c.X[10] != 1 || c.X[12] != dataVA || c.X[13] != 8 {
		t.Fatalf("getters: base=%x len=%d tag=%d addr=%x off=%d", c.X[8], c.X[9], c.X[10], c.X[12], c.X[13])
	}
	if cap.Perm(c.X[11]) != cap.PermRO {
		t.Fatalf("perms = %v", cap.Perm(c.X[11]))
	}
}

func TestCRRLAndCRAM(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.LUI, Ra: 8, Imm: 1 << 7}, // 1<<21
		{Op: isa.ADDI, Ra: 8, Rb: 8, Imm: 3},
		{Op: isa.CRRL, Ra: 9, Rb: 8},
		{Op: isa.CRAM, Ra: 10, Rb: 8},
		{Op: isa.BREAK},
	})
	run(t, c)
	want := cap.RepresentableLength(1<<21 + 3)
	if c.X[9] != want {
		t.Fatalf("CRRL = %d, want %d", c.X[9], want)
	}
	if c.X[10] != cap.RepresentableAlignmentMask(1<<21+3) {
		t.Fatalf("CRAM = %x", c.X[10])
	}
}

type recordingTracer struct {
	stack, other int
}

func (r *recordingTracer) DeriveStack(cap.Capability, uint64) { r.stack++ }
func (r *recordingTracer) DeriveOther(cap.Capability, uint64) { r.other++ }

func TestTracerClassifiesStackDerivations(t *testing.T) {
	c := newTestCPU(t)
	tr := &recordingTracer{}
	c.Tracer = tr
	c.C[3] = cap.Root(dataVA, 4096, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 8, Rb: 0, Imm: 16},
		{Op: isa.CSETBNDS, Ra: 4, Rb: isa.CSP, Rc: 8}, // stack-derived
		{Op: isa.CSETBNDS, Ra: 5, Rb: 3, Rc: 8},       // other
		{Op: isa.BREAK},
	})
	run(t, c)
	if tr.stack != 1 || tr.other != 1 {
		t.Fatalf("tracer: stack=%d other=%d", tr.stack, tr.other)
	}
}

func TestReservedInstruction(t *testing.T) {
	c := newTestCPU(t)
	pa, _ := c.AS.Translate(codeVA, vm.ProtWrite)
	c.Mem.Store(pa, 4, 0xFE) // unknown opcode
	tr := c.Run(10)
	if tr == nil || tr.Kind != TrapReserved {
		t.Fatalf("want reserved trap, got %v", tr)
	}
}

func TestCFromPtrAndCToPtr(t *testing.T) {
	c := newTestCPU(t)
	c.C[3] = cap.Root(dataVA, 4096, cap.PermData)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 8, Rb: 0, Imm: 100},
		{Op: isa.CFROMPTR, Ra: 4, Rb: 3, Rc: 8}, // c4 = c3 @ base+100
		{Op: isa.CTOPTR, Ra: 9, Rb: 4, Rc: 3},   // r9 = 100
		{Op: isa.CFROMPTR, Ra: 5, Rb: 3, Rc: 0}, // NULL
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.X[9] != 100 {
		t.Fatalf("ctoptr = %d", c.X[9])
	}
	if c.C[5].Tag() {
		t.Fatal("cfromptr(0) must be NULL")
	}
	if !c.C[4].Tag() || c.C[4].Addr() != dataVA+100 {
		t.Fatalf("cfromptr: %v", c.C[4])
	}
}

// Kernel-style bulk copyin/copyout through user capabilities is covered
// by internal/uaccess, which owns the page-run bulk access engine.

// TestMul128 pins MULH, the high half of the unsigned 128-bit product,
// on edge operands under both engines. The engines share the product's
// definition, so the differential suites alone would not notice it wrong.
func TestMul128(t *testing.T) {
	const max = ^uint64(0)
	cases := []struct{ a, b, hi uint64 }{
		{0, 0, 0}, {0, 1 << 32, 0}, {0, 1 << 63, 0}, {0, max, 0},
		{1 << 32, 1 << 32, 1},
		{1 << 32, 1 << 63, 1 << 31},
		{1 << 32, max, 1<<32 - 1},
		{1 << 63, 1 << 63, 1 << 62},
		{1 << 63, max, 1<<63 - 1},
		{max, max, max - 1},
	}
	for _, reference := range []bool{false, true} {
		c := newTestCPU(t)
		c.Reference = reference
		load(t, c, []isa.Inst{{Op: isa.MULH, Ra: 2, Rb: 4, Rc: 5}, {Op: isa.BREAK}})
		for _, tc := range cases {
			for _, ab := range [][2]uint64{{tc.a, tc.b}, {tc.b, tc.a}} {
				c.PC = codeVA
				c.X[4], c.X[5] = ab[0], ab[1]
				run(t, c)
				if c.X[2] != tc.hi {
					t.Errorf("reference=%v: MULH(%#x, %#x) = %#x, want %#x", reference, ab[0], ab[1], c.X[2], tc.hi)
				}
			}
		}
	}
}

func TestCyclesExceedInstructions(t *testing.T) {
	c := newTestCPU(t)
	load(t, c, []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 0, Imm: 1},
		{Op: isa.BREAK},
	})
	run(t, c)
	if c.Stats.Cycles < c.Stats.Instructions {
		t.Fatalf("cycles %d < instructions %d", c.Stats.Cycles, c.Stats.Instructions)
	}
}

// TestStatsSubCoversEveryField: Sub subtracts every counter, so one added
// to Stats cannot silently read 0 in run results and fleet deltas.
func TestStatsSubCoversEveryField(t *testing.T) {
	var before, after Stats
	bv, av := reflect.ValueOf(&before).Elem(), reflect.ValueOf(&after).Elem()
	for i := range bv.NumField() {
		if bv.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %v; Sub handles uint64 counters", bv.Type().Field(i).Name, bv.Field(i).Kind())
		}
		bv.Field(i).SetUint(uint64(i + 1))
		av.Field(i).SetUint(uint64(100*i + 1000))
	}
	dv := reflect.ValueOf(after.Sub(before))
	for i := range dv.NumField() {
		if got, want := dv.Field(i).Uint(), uint64(99*i+999); got != want {
			t.Errorf("Sub: Stats.%s = %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
}
