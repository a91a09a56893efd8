package cpu

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// FuzzEngineMatchesReference runs one random instruction stream on the
// reference engine, on the fast engine, and on the general engine (the
// reference with every micro-TLB backing dropped before each
// instruction), and requires them to agree bit for bit: the tierState
// (registers, PC/PCC, Stats, every cache level's counters and the DRAM
// count) at every trap and at the end. The reference and the fast engine
// share the data hit test (load and store in access.go); the general
// engine never passes it, because a hit needs a backing, so every one of
// its data accesses runs the general sequence, and a hit test that
// accepts an access it should not, or a hit that forgets part of its
// effect, shows as a divergence from it.
//
// A stream mixes ALU ops; branches and jumps, short ones that straddle an
// L1I line and long ones that straddle a page; stores into the code
// pages; loads and stores that hit, that soft-fault a demand-zero page
// mid-run, or that write a page so far proven only for reads, among them
// a read-only page whose stores must fault; pointer arithmetic whose
// deltas stay in bounds, reach top, or leave the representable window;
// and capability loads and stores, some misaligned, out of bounds or
// through an authority without PermLoadCap, over tagged, untagged and
// sealed operands. The program runs under a Run(max) budget drawn from
// the input, down to a single instruction, so budget clipping at every
// point of a line run is exercised. A trap
// is taken and execution resumes after it, as the kernel does for a
// call, or back at the entry point when that leaves the code.
//
// The seed corpus is in testdata/fuzz/FuzzEngineMatchesReference.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(5000))
	f.Add(uint64(2), uint16(1400), uint16(1))
	f.Fuzz(engineCase)
}

// engineCase is one FuzzEngineMatchesReference input: the stream seed
// draws, n sets its length and budget the Run(max) budget.
func engineCase(t *testing.T, seed uint64, n, budget uint16) {
	size := 1 + int(n)%1500
	prog, start := fuzzProgram(seed, size)
	max := 1 + uint64(budget)%2000
	run := func(name string, ref, general bool) []tierState {
		c := newTestCPU(t)
		c.Reference = ref
		fuzzSetup(c, seed)
		load(t, c, prog)
		step := c.Run
		if general {
			// Run(max) on the reference is max single Steps, stopping
			// at a trap; so is this, with the backings dropped first.
			step = func(max uint64) *Trap {
				for range max {
					for i := range c.tlb {
						c.tlb[i].data = nil
					}
					if tr := c.Run(1); tr != nil {
						return tr
					}
				}
				return nil
			}
		}
		// A run that never reaches a budget check would hang the test,
		// so the drive has a deadline. Missing it panics: the spinning
		// goroutine cannot be stopped, and would slow every later case.
		done := make(chan []tierState, 1)
		go func() { done <- fuzzDrive(c, step, start, size, max) }()
		select {
		case states := <-done:
			return states
		case <-time.After(20 * time.Second):
			panic(fmt.Sprintf("%s engine: seed %d, %d instructions, budget %d: the program did not stop within 20 s",
				name, seed, size, max))
		}
	}
	want := run("reference", true, false)
	for _, e := range []struct {
		name    string
		ref     bool
		general bool
	}{{"fast", false, false}, {"general", true, true}} {
		got := run(e.name, e.ref, e.general)
		if len(got) != len(want) {
			t.Fatalf("%s engine stopped %d times, reference %d times", e.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stop %d of %d (budget %d): %s engine diverged from the reference:\n got %+v\nwant %+v",
					i, len(got), max, e.name, got[i], want[i])
			}
		}
	}
}

// fuzzDrive runs c from start under run(max), c.Run or its stand-in,
// and returns its state at
// every trap and at the end. After a trap it resumes at the next
// instruction, as the kernel does after a call, or, when that is outside
// the n-instruction program at codeVA or one time in four, at a random
// instruction of the program. It also moves to a random instruction
// after 1000 instructions without a trap. Either way a loop, around a
// faulting instruction or none, cannot use up the run.
func fuzzDrive(c *CPU, run func(max uint64) *Trap, start uint64, n int, max uint64) []tierState {
	const maxCalls, maxInsts, maxLoop = 2000, 30_000, 1000
	r := rand.New(rand.NewPCG(start, uint64(n)))
	c.PC = start
	var states []tierState
	for i, last := 0, uint64(0); i < maxCalls && c.Stats.Instructions < maxInsts; i++ {
		tr := run(max)
		if tr == nil {
			if c.Stats.Instructions-last >= maxLoop {
				last = c.Stats.Instructions
				c.PC = codeVA + uint64(r.IntN(n))*isa.InstSize
			}
			continue
		}
		states = append(states, stateOf(c, tr))
		last = c.Stats.Instructions
		c.PC += isa.InstSize
		if c.PC-codeVA >= uint64(n)*isa.InstSize || c.PC%isa.InstSize != 0 || r.IntN(4) == 0 {
			c.PC = codeVA + uint64(r.IntN(n))*isa.InstSize
		}
	}
	return append(states, stateOf(c, nil))
}

// Capability registers fuzzSetup prepares. The streams read c0..c15 and
// write mostly the scratch registers c10..c15, so that the prepared
// authorities stay usable.
const (
	fzData   = 1 // the data region, cursor inside
	fzSmall  = 2 // 48 bytes inside the data region
	fzNoLC   = 3 // the data region without PermLoadCap or PermStoreCap
	fzSealed = 4 // sealed
	fzUntag  = 5 // untagged
	fzTop    = 6 // top == 2^64-1
	fzBig    = 7 // 64 KiB: a non-zero exponent
	fzMisal  = 8 // the data region, cursor misaligned
	fzCode   = 9 // the code region, for CJR/CJALR
	fzCRegs  = 16
)

// Integer registers: r1..r7 hold edge values (deltas and lengths),
// r8..r11 data addresses (r11 sometimes in the read-only page), r12 a
// code address and r13 an instruction word (for stores into the code
// pages).
const fzXRegs = 14

// fzROVA is a read-only page just past the data region. fuzzSetup writes
// it before revoking the write permission, so its chunk holds data and a
// load gives its micro-TLB entry a backing; every store to it must still
// take the page fault.
const fzROVA = dataVA + 4*vm.PageSize

var fzEdges = []uint64{0, 1, ^uint64(0), 16, 48, 0xFFF, 0x1000, 1 << 20, 1 << 40, ^uint64(1<<40) + 1, 1 << 63}

// fuzzSetup fills the registers and a few capabilities in memory from
// seed, identically for both engines.
func fuzzSetup(c *CPU, seed uint64) {
	// A stream of its own for what was added after the first seeds were
	// committed, so that the draws below stay theirs.
	r2 := rand.New(rand.NewPCG(seed, 0x20))
	if r2.IntN(2) == 0 {
		// A tiny hierarchy, where a few lines already evict at every
		// level and write dirty lines back.
		c.Hier = &cache.Hierarchy{
			L1I:         cache.New(cache.Config{Name: "L1I", Size: 128, LineSize: 16, Ways: 2, HitLatency: 1}),
			L1D:         cache.New(cache.Config{Name: "L1D", Size: 256, LineSize: 32, Ways: 2, HitLatency: 2}),
			L2:          cache.New(cache.Config{Name: "L2", Size: 2048, LineSize: 32, Ways: 4, HitLatency: 9}),
			DRAMLatency: 50,
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x5e7))
	for i := 1; i <= 7; i++ {
		c.X[i] = fzEdges[r.IntN(len(fzEdges))]
	}
	for i := 8; i <= 11; i++ {
		c.X[i] = dataVA + uint64(r.IntN(4*vm.PageSize))&^7
	}
	c.X[12] = codeVA + uint64(r.IntN(3*vm.PageSize))&^3
	w, _ := isa.Encode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1})
	c.X[13] = uint64(w)

	data := cap.Root(dataVA, 4*vm.PageSize, cap.PermData)
	c.C[fzData] = cap.SetAddr(data, dataVA+0x100)
	small, _ := cap.SetBounds(data, dataVA+0x100, 48)
	c.C[fzSmall] = small
	c.C[fzNoLC] = c.C[fzData].ClearPerms(cap.PermLoadCap | cap.PermStoreCap)
	sealer := cap.SetAddr(cap.Root(0, 1<<12, cap.PermSeal), 5)
	c.C[fzSealed], _ = c.C[fzData].Seal(sealer)
	c.C[fzUntag] = c.C[fzData].ClearTag()
	c.C[fzTop] = cap.Root(^uint64(0)-0xFFF, 0xFFF, cap.PermData)
	big, _ := cap.SetBounds(cap.Root(0, 1<<40, cap.PermData), dataVA, 1<<16)
	c.C[fzBig] = big
	c.C[fzMisal] = cap.SetAddr(data, dataVA+0x108)
	c.C[fzCode] = cap.SetAddr(c.PCC, codeVA+uint64(r.IntN(3*vm.PageSize))&^3)

	// Tagged capabilities in the first data granules, so CLC loads some.
	for i := uint64(0); i < 8; i++ {
		v := c.C[1+r.IntN(fzCRegs-1)]
		if err := c.StoreCapVia(c.DDC, dataVA+0x100+i*cap.Bytes, v); err != nil {
			panic(err)
		}
	}
	if err := c.AS.Map(fzROVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		panic(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := c.StoreVia(c.DDC, fzROVA+i*64, 8, i+1); err != nil {
			panic(err)
		}
	}
	if err := c.AS.Protect(fzROVA, vm.PageSize, vm.ProtRead); err != nil {
		panic(err)
	}
	if r2.IntN(3) == 0 {
		c.X[11] = fzROVA + uint64(r2.IntN(vm.PageSize))&^7
	}
	// Setup must not count towards either run.
	c.Stats = Stats{}
	c.Hier.ResetStats()
}

// fuzzProgram returns n random instructions, with BREAKs to the end of
// the code pages, and an entry point among the n.
func fuzzProgram(seed uint64, n int) ([]isa.Inst, uint64) {
	r := rand.New(rand.NewPCG(seed, uint64(n)))
	prog := make([]isa.Inst, 4*instsPerPage)
	for i := range prog {
		prog[i] = isa.Inst{Op: isa.BREAK}
		if i < n {
			prog[i] = fuzzInst(r)
		}
	}
	return prog, codeVA + uint64(r.IntN(n))*isa.InstSize
}

var (
	fzALU = []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.MULH, isa.DIV, isa.DIVU, isa.REM, isa.REMU,
		isa.AND, isa.OR, isa.XOR, isa.NOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU,
		isa.SEXTB, isa.SEXTH, isa.SEXTW}
	fzALUI   = []isa.Op{isa.ADDI, isa.SLTI, isa.SLTIU, isa.SLLI, isa.SRLI, isa.SRAI}
	fzBranch = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
	fzLoad   = []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
	fzStore  = []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
	fzCLoad  = []isa.Op{isa.CLB, isa.CLBU, isa.CLH, isa.CLHU, isa.CLW, isa.CLWU, isa.CLD}
	fzCStore = []isa.Op{isa.CSB, isa.CSH, isa.CSW, isa.CSD}
	fzCapMem = []isa.Op{isa.CLC, isa.CLCB, isa.CSC, isa.CSCB}
	fzCapOp  = []isa.Op{isa.CMOVE, isa.CSETADDR, isa.CGETADDR, isa.CSETBNDS, isa.CSETBNDSI,
		isa.CANDPERM, isa.CCLRTAG, isa.CGETTAG, isa.CGETBASE, isa.CGETLEN, isa.CGETOFF,
		isa.CFROMPTR, isa.CSUB, isa.CEXEQ, isa.CGETPCC}
	// fzIncImm are CIncOffsetImm deltas at the edges: 0xFFF from fzTop's
	// base lands on top == 2^64-1, and ±0x1000 and beyond leave fzSmall.
	fzIncImm = []int32{0, 1, -1, 8, 16, -16, 47, 48, 0xFFF, 0x1000, -0x1000, isa.Imm14Max, isa.Imm14Min}
)

func pick[T any](r *rand.Rand, s []T) T { return s[r.IntN(len(s))] }

// fuzzInst returns one random, encodable instruction.
func fuzzInst(r *rand.Rand) isa.Inst {
	x := func() uint8 { return uint8(r.IntN(fzXRegs)) }
	xd := func() uint8 { return uint8(1 + r.IntN(7)) } // r1..r7: keep the address registers
	cr := func() uint8 { return uint8(r.IntN(fzCRegs)) }
	cd := func() uint8 {
		if r.IntN(5) == 0 {
			return uint8(r.IntN(fzCode + 1))
		}
		return uint8(fzCode + 1 + r.IntN(fzCRegs-fzCode-1))
	}
	// Memory authorities: mostly ones that can succeed.
	auth := func() uint8 {
		if r.IntN(3) == 0 {
			return cr()
		}
		return pick(r, []uint8{fzData, fzSmall, fzNoLC, fzBig})
	}
	// Memory offsets: mostly aligned to the access size, sometimes not.
	memImm := func(op isa.Op) int32 {
		size := int32(scalarMemOps[op].size)
		if r.IntN(8) == 0 {
			return int32(r.IntN(64)) - 8
		}
		return (int32(r.IntN(16)) - 2) * size
	}
	imm14 := func() int32 { return int32(r.IntN(1<<14)) + isa.Imm14Min }
	// Branch offsets: mostly short (inside or just across a line), some
	// long enough to leave the page.
	off := func() int32 {
		if r.IntN(4) == 0 {
			return int32(r.IntN(2*instsPerPage+1) - instsPerPage)
		}
		return int32(r.IntN(41) - 12)
	}
	switch k := r.IntN(100); {
	case k < 14:
		return isa.Inst{Op: pick(r, fzALU), Ra: xd(), Rb: x(), Rc: x()}
	case k < 22:
		return isa.Inst{Op: pick(r, fzALUI), Ra: xd(), Rb: x(), Imm: int32(r.IntN(64)) - 8}
	case k < 34:
		return isa.Inst{Op: pick(r, fzBranch), Ra: x(), Rb: x(), Imm: off()}
	case k < 37:
		return isa.Inst{Op: pick(r, []isa.Op{isa.J, isa.JAL, isa.CJAL}), Imm: off()}
	case k < 44:
		op := pick(r, fzLoad)
		return isa.Inst{Op: op, Ra: xd(), Rb: uint8(8 + r.IntN(5)), Imm: memImm(op)}
	case k < 49:
		// Through r12 this stores into the code pages, r13 an instruction.
		op := pick(r, fzStore)
		return isa.Inst{Op: op, Ra: x(), Rb: uint8(8 + r.IntN(5)), Imm: memImm(op)}
	case k < 55:
		op := pick(r, fzCLoad)
		return isa.Inst{Op: op, Ra: xd(), Rb: auth(), Imm: memImm(op)}
	case k < 59:
		op := pick(r, fzCStore)
		return isa.Inst{Op: op, Ra: x(), Rb: auth(), Imm: memImm(op)}
	case k < 71:
		op := pick(r, fzCapMem)
		imm := int32(r.IntN(9)-4) * isa.CapImmScale
		if (op == isa.CLCB || op == isa.CSCB) && r.IntN(4) == 0 {
			imm = int32(r.IntN(isa.CLCBigMax-isa.CLCBigMin+1)+isa.CLCBigMin) * isa.CapImmScale
		}
		return isa.Inst{Op: op, Ra: cd(), Rb: auth(), Imm: imm}
	case k < 78:
		return isa.Inst{Op: isa.CINCOFFI, Ra: cd(), Rb: cr(), Imm: pick(r, fzIncImm)}
	case k < 84:
		return isa.Inst{Op: isa.CINCOFF, Ra: cd(), Rb: cr(), Rc: x()}
	case k < 91:
		in := isa.Inst{Op: pick(r, fzCapOp), Ra: cd(), Rb: cr(), Rc: x()}
		switch in.Op {
		case isa.CSETBNDSI:
			in.Imm = int32(r.IntN(256))
		case isa.CGETADDR, isa.CGETBASE, isa.CGETLEN, isa.CGETOFF, isa.CGETTAG, isa.CSUB, isa.CEXEQ:
			in.Ra = xd()
			in.Rc = cr()
		}
		return in
	case k < 93:
		return isa.Inst{Op: pick(r, []isa.Op{isa.CBTS, isa.CBTU}), Ra: cr(), Imm: off()}
	case k < 96:
		// Indirect transfers: JR/JALR through r12 (sometimes misaligned by
		// an earlier ALU op), CJR/CJALR through the code capability or any
		// other register (which faults).
		switch r.IntN(4) {
		case 0:
			return isa.Inst{Op: isa.JR, Ra: 12}
		case 1:
			return isa.Inst{Op: isa.JALR, Ra: xd(), Rb: 12}
		case 2:
			return isa.Inst{Op: isa.CJR, Ra: pick(r, []uint8{fzCode, cr()})}
		default:
			return isa.Inst{Op: isa.CJALR, Ra: cd(), Rb: pick(r, []uint8{fzCode, cr()})}
		}
	case k < 97:
		return isa.Inst{Op: pick(r, []isa.Op{isa.SYSCALL, isa.BREAK})}
	default:
		return isa.Inst{Op: isa.ADDI, Ra: xd(), Rb: x(), Imm: imm14()}
	}
}
