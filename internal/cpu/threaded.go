package cpu

import (
	"math/bits"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// Block-threaded execution engine: the simulator's fast path, which Run
// takes unless the CPU runs its Reference.
//
// Every Step pays the full fetch — PCC check, translation, and the
// Step/fetchInst call overhead — per instruction. runBlock pays it once:
// it validates the latch Step's fetch left behind (an address-space
// compare, two generation compares, and a bit-for-bit PCC compare), then
// executes decoded instructions directly from the block, re-checking only
// what an instruction can actually change:
//
//   - the fetch limits, once per line run. When PC enters an L1I line, the
//     line entry checks the budget, PC's alignment, and PC against the
//     fetch window (fetchWindow above: the page intersected with PCC's
//     fetchable bounds, fixed until PCC is replaced — which only
//     CJR/CJALR do, and both end the run), and works out end, the first
//     PC at which sequential retirement would leave the line or the
//     window or exhaust the budget. The window is an interval and
//     sequential PCs climb by InstSize, so every PC from the checked one
//     up to end passes all four checks, and each instruction in between
//     costs one compare, pc < end. A jump, a taken branch or an exec call
//     that moves PC anywhere but to the next instruction sets end to 0,
//     so the new PC goes through the line entry (an exec call is the only
//     way to a misaligned PC, so the alignment check lives there too). An
//     out-of-window PC exits to the Step slow path, which leaves the page
//     or raises the identical capability fault;
//   - AddressSpace.Gen and the executing page's mem.PageGen unchanged.
//     Only a memory-accessing instruction can change either (a store
//     mutates page bytes; a translation resolves soft faults), so the
//     probe runs exactly after loads, stores, and capability loads/stores
//     — after anything else the generations provably cannot have moved.
//     A load writes memory only when its translation resolves a soft
//     fault, which fills a newly allocated frame (never the executing
//     page's, which is mapped) and bumps AS.Gen, so after a load the
//     probe compares AS.Gen alone.
//
// Exit conditions, exhaustively: trap (returned to the kernel), budget
// exhausted, misaligned PC, PC out of PCC bounds, PC leaves the page, PCC
// replaced (CJR/CJALR), or AS.Gen or executing PageGen changed. Every exit
// hands the next instruction to Step, whose fetch re-proves the PCC and
// the translation from scratch, so SMC, mprotect, munmap, COW, and swap
// semantics are exactly those of the plain interpreter.
//
// Cycle-ledger batching: the per-instruction base charges (one retired
// instruction, plus the I-cache fetch cost) accumulate in run-local
// counters and are flushed to Stats when the run ends — before any trap is
// surfaced, so the kernel and any OnTrap observer always see exact
// architectural counts. Consecutive fetches from one L1I line are batched
// the same way: only the first issues a real Hierarchy.Fetch, which leaves
// the line first in its set's recency order. Nothing but instruction
// fetches touches L1I state, so the rest are hits on that most recent way
// whose only effect is the access count; the flush applies all of them
// with one L1I.Hits call, which leaves the cache bit-identical to
// per-fetch issue. Data accesses that hit the micro-TLB and the L1D's
// most recent way are counted in the run's dataRun and applied with one
// L1D.Hits call at the same flush (access.go). Op-specific extras
// (multi-cycle ALU ops, branch bubbles, the costs of data accesses that
// miss) are charged directly, exactly as on the Step path; the final sums
// are bit-identical either way. Nothing in the simulator reads Stats or
// cache counters mid-run, so deferring the flushes cannot change what
// anyone observes.

// fetchWindow returns the PCs in the page at vaPage from which a
// one-instruction fetch stays in pcc's bounds, as a base and a length: pc
// is in the page and in bounds iff pc-lo < span, one subtract-and-compare
// in place of a page-offset compare and InBounds' three (the tag, seal,
// and permission halves of the execute proof are covered by the latch's
// bit-for-bit PCC compare).
func fetchWindow(pcc *cap.Capability, vaPage uint64) (lo, span uint64) {
	if pcc.Len() < isa.InstSize {
		return 0, 0
	}
	// Inclusive ends, so that nothing wraps: base+len never overflows,
	// and neither does the last byte of a page.
	lo = max(pcc.Base(), vaPage)
	hi := min(pcc.Base()+pcc.Len()-isa.InstSize, vaPage+vm.PageSize-1)
	if hi < lo {
		return 0, 0
	}
	return lo, hi - lo + 1
}

// runBlock executes decoded instructions from the latched page until an
// exit condition, retiring at most rem
// instructions (0 = no limit). It returns the trap that ended the run, or
// nil. If the latch does not validate, it returns immediately having
// retired nothing, and the caller falls back to Step.
func (c *CPU) runBlock(rem uint64) *Trap {
	l := &c.latch
	page := l.page
	if page == nil || c.AS != l.as || c.AS.Gen != l.asGen || c.PCC != l.pcc ||
		c.PC-l.vaPage >= vm.PageSize || c.PC%isa.InstSize != 0 ||
		c.Mem.PageGen(l.paPage) != page.gen {
		return nil
	}
	vaPage, paPage, asGen := l.vaPage, l.paPage, l.asGen
	fetchLo, fetchSpan := fetchWindow(&c.PCC, vaPage)
	// Hot-probe pointers hoisted out of the loop: the executing page's
	// write-generation counter and the address space's. c.AS cannot change
	// inside a run — nothing the run dispatches switches address spaces; a
	// context switch happens in the kernel, between runs — so the pointer
	// stays aimed at the live counter even as translations bump it.
	genPtr := c.Mem.PageGenPtr(paPage)
	asGenPtr := &c.AS.Gen
	// The data hit tests' fixed state (see dataRun): the run ends as soon
	// as AS.Gen moves, so asGen stays the live generation while it runs.
	dr := dataRun{as: c.AS, gen: asGen, l1d: c.Hier.L1D.Probe()}
	// The retirement budget as a simple limit: comparing against ^0 for
	// "unlimited" keeps the per-instruction check to one compare.
	limit := rem
	if limit == 0 {
		limit = ^uint64(0)
	}
	// pc shadows c.PC for the duration of the loop so straight-line
	// retirement never touches the CPU struct; it is written back before
	// every exec call (exec reads and advances c.PC), before building a
	// trap, and at every loop exit.
	pc := c.PC
	var end uint64 // the line run's end (see below)
	var nCycles, nLoads, nStores, nCapLoads, nCapStores, nBranches, nTaken uint64
	// The instructions retired so far are not counted one by one: pc
	// advances by one instruction per retirement, so the count before the
	// instruction at pc retires is base + pc/4, and only a PC change that
	// is not a sequential advance moves base (jump).
	base := -(pc / isa.InstSize)
	jump := func(target uint64) {
		base += (pc+isa.InstSize)/isa.InstSize - target/isa.InstSize
		pc = target
		end = 0 // the line entry re-checks the new pc
	}

	// The line run (see the note above): when pc enters an L1I line, the
	// line-entry checks work out once where sequential retirement must
	// stop — at the end of the line, the page or the fetch window, or when
	// the budget runs out — and every pc below end reached by sequential
	// advance passes all four checks. Any other PC change sets end to 0,
	// which sends the next instruction through the line-entry checks.
	// lineBase is the L1I line of the last real fetch (1, which no line
	// base equals, before the first). Every instruction the run retires is
	// fetched either by a real fetch, counted in nFetches, or as a repeat
	// from lineBase, so the repeats need no counter of their own: the
	// flush applies nInst - nFetches of them.
	lineSize := c.Hier.L1I.LineSize()
	lineBase := uint64(1)
	var nFetches uint64
	flush := func(nInst uint64) {
		if nInst == 0 {
			return
		}
		c.Stats.Instructions += nInst
		c.Stats.Cycles += nCycles + c.Hier.L1I.Hits(nInst-nFetches) + c.Hier.L1D.Hits(dr.hits)
		c.Stats.Loads += nLoads
		c.Stats.Stores += nStores
		c.Stats.CapLoads += nCapLoads
		c.Stats.CapStores += nCapStores
		c.Stats.Branches += nBranches
		c.Stats.Taken += nTaken
		c.DecodeStats.Hits += nInst
		c.DecodeStats.Threaded += nInst
		c.DecodeStats.Blocks++
	}
run:
	for {
		// Inside the line run, a same-line fetch is a repeat.
		if pc >= end {
			// Line entry. pc is instruction-aligned unless an exec call set
			// it, and that set end to 0, so it is checked here.
			nInst := base + pc/isa.InstSize
			if nInst >= limit || pc%isa.InstSize != 0 {
				break
			}
			d := pc - fetchLo
			if d >= fetchSpan {
				// PC left the page, and Step's fetch proves the next one, or
				// it left PCC's bounds, and Step raises the identical fault.
				break
			}
			// Identical I-cache accounting to the Step path: the fetch
			// charge subsumes the base execution cycle (an L1I hit costs
			// 1). A branch back into the line just fetched is a repeat.
			pa := paPage + (pc - vaPage)
			if pa&^(lineSize-1) != lineBase {
				nCycles += c.Hier.Fetch(pa, isa.InstSize)
				nFetches++
				lineBase = pa &^ (lineSize - 1)
			}
			// n instructions from pc on stay in the line, the fetch window
			// (d+4k < fetchSpan) and the budget.
			n := (lineBase + lineSize - pa) / isa.InstSize
			if w := (fetchSpan-d-1)/isa.InstSize + 1; w < n {
				n = w
			}
			if r := limit - nInst; r < n {
				n = r
			}
			end = pc + n*isa.InstSize
		}
		in := page.insts[(pc-vaPage)/isa.InstSize%uint64(len(page.insts))]
		// One jump-table dispatch for every instruction class: stores fall
		// OUT of the switch to the generation probe below, loads probe
		// AS.Gen themselves, and everything else continues (or exits)
		// directly, since nothing but a memory op can move the
		// generations.
		switch in.Op {
		// Inline scalar loads/stores: the same load/store calls, Stats
		// updates and scalarMemOps rows as exec's loadInt/storeInt, with
		// the run's dataRun. Scalar memory ops never replace
		// PCC, so the CJR/CJALR exit check is skipped too. The four
		// authority/direction combinations get their own jump-table
		// entries: the outer switch already resolved in.Op, so re-deriving
		// "cheri?" and "store?" from table flags would re-branch on data
		// the dispatch has settled.
		case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD:
			mo := scalarMemOps[in.Op]
			v, err := c.load(&dr, &c.DDC, c.X[in.Rb]+uint64(int64(in.Imm)), uint64(mo.size), 0)
			if err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nLoads++
			// Sign-extend; a zero shift (unsigned) leaves v as it is, and
			// the mask spares the shifts a range check.
			sh := mo.shift & 63
			v = uint64(int64(v<<sh) >> sh)
			c.setX(in.Ra, v)
			pc += isa.InstSize
			if *asGenPtr != asGen {
				break run // the load resolved a soft fault
			}
			continue

		case isa.CLB, isa.CLBU, isa.CLH, isa.CLHU, isa.CLW, isa.CLWU, isa.CLD:
			mo := scalarMemOps[in.Op]
			auth := &c.C[in.Rb]
			v, err := c.load(&dr, auth, auth.Addr()+uint64(int64(in.Imm)), uint64(mo.size), 0)
			if err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nLoads++
			sh := mo.shift & 63 // sign-extend, as above
			v = uint64(int64(v<<sh) >> sh)
			c.setX(in.Ra, v)
			pc += isa.InstSize
			if *asGenPtr != asGen {
				break run // the load resolved a soft fault
			}
			continue

		case isa.SB, isa.SH, isa.SW, isa.SD:
			mo := scalarMemOps[in.Op]
			if err := c.store(&dr, &c.DDC, c.X[in.Rb]+uint64(int64(in.Imm)), uint64(mo.size), c.X[in.Ra], nil); err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nStores++
			pc += isa.InstSize

		case isa.CSB, isa.CSH, isa.CSW, isa.CSD:
			mo := scalarMemOps[in.Op]
			auth := &c.C[in.Rb]
			if err := c.store(&dr, auth, auth.Addr()+uint64(int64(in.Imm)), uint64(mo.size), c.X[in.Ra], nil); err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nStores++
			pc += isa.InstSize

		// Capability loads and stores: the only ops outside the scalar
		// table that touch memory. Like the scalar memops they go straight
		// to load and store (a capability load decodes into the
		// destination register), count in the run-local ledger, advance PC
		// by one instruction and probe the generations as they do.
		case isa.CLC, isa.CLCB:
			auth := &c.C[in.Rb]
			if _, err := c.load(&dr, auth, auth.Addr()+uint64(int64(in.Imm)), cap.Bytes, in.Ra); err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nCapLoads++
			pc += isa.InstSize
			if *asGenPtr != asGen {
				break run // the load resolved a soft fault
			}
			continue

		case isa.CSC, isa.CSCB:
			auth := &c.C[in.Rb]
			if err := c.store(&dr, auth, auth.Addr()+uint64(int64(in.Imm)), cap.Bytes, 0, &c.C[in.Ra]); err != nil {
				c.PC = pc
				flush(base + pc/isa.InstSize + 1)
				return c.accessTrap(in, err)
			}
			nCapStores++
			pc += isa.InstSize

		// Pointer arithmetic: exec's CIncOffset through pointers, so no
		// capability value enters the loop (IncAddrP). It touches neither
		// memory nor PCC.
		case isa.CINCOFF:
			if in.Ra != 0 {
				cap.IncAddrP(&c.C[in.Ra], &c.C[in.Rb], int64(c.X[in.Rc]))
			}
			pc += isa.InstSize
			continue
		case isa.CINCOFFI:
			if in.Ra != 0 {
				cap.IncAddrP(&c.C[in.Ra], &c.C[in.Rb], int64(in.Imm))
			}
			pc += isa.InstSize
			continue

		// Inline direct branches and jumps: the same compare, Stats
		// updates, taken-bubble charge, and PC arithmetic as exec's
		// cases, minus the call dispatch. None of these touch memory or
		// PCC, so they skip both the generation probe and the CJR/CJALR
		// exit check.
		case isa.BEQ:
			nBranches++
			if c.X[in.Ra] == c.X[in.Rb] {
				nTaken++
				nCycles++ // taken-branch bubble
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BNE:
			nBranches++
			if c.X[in.Ra] != c.X[in.Rb] {
				nTaken++
				nCycles++
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BLT:
			nBranches++
			if int64(c.X[in.Ra]) < int64(c.X[in.Rb]) {
				nTaken++
				nCycles++
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BGE:
			nBranches++
			if int64(c.X[in.Ra]) >= int64(c.X[in.Rb]) {
				nTaken++
				nCycles++
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BLTU:
			nBranches++
			if c.X[in.Ra] < c.X[in.Rb] {
				nTaken++
				nCycles++
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BGEU:
			nBranches++
			if c.X[in.Ra] >= c.X[in.Rb] {
				nTaken++
				nCycles++
				jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.J:
			nCycles++
			jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			continue
		case isa.JAL:
			nCycles++
			c.setX(isa.RRA, pc+isa.InstSize)
			jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			continue
		case isa.CJAL:
			// exec's CJAL: the link capability is PCC with its cursor at
			// the return address, built in place (SetAddrP).
			nCycles++
			cap.SetAddrP(&c.C[isa.CRA], &c.PCC, pc+isa.InstSize)
			jump(pc + uint64(int64(in.Imm))*isa.InstSize)
			continue

		// Inline single-cycle integer ALU ops: same register reads,
		// setX writes, and PC advance as exec's cases, minus the call
		// and op-switch dispatch. None touch memory, PCC, or extra
		// cycles, so they skip the probe and exit checks like the
		// branches above.
		case isa.NOP:
			pc += isa.InstSize
			continue
		case isa.ADD:
			c.setX(in.Ra, c.X[in.Rb]+c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.SUB:
			c.setX(in.Ra, c.X[in.Rb]-c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.AND:
			c.setX(in.Ra, c.X[in.Rb]&c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.OR:
			c.setX(in.Ra, c.X[in.Rb]|c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.XOR:
			c.setX(in.Ra, c.X[in.Rb]^c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.SLL:
			c.setX(in.Ra, c.X[in.Rb]<<(c.X[in.Rc]&63))
			pc += isa.InstSize
			continue
		case isa.SRL:
			c.setX(in.Ra, c.X[in.Rb]>>(c.X[in.Rc]&63))
			pc += isa.InstSize
			continue
		case isa.SRA:
			c.setX(in.Ra, uint64(int64(c.X[in.Rb])>>(c.X[in.Rc]&63)))
			pc += isa.InstSize
			continue
		case isa.SLT:
			c.setX(in.Ra, b2i(int64(c.X[in.Rb]) < int64(c.X[in.Rc])))
			pc += isa.InstSize
			continue
		case isa.SLTU:
			c.setX(in.Ra, b2i(c.X[in.Rb] < c.X[in.Rc]))
			pc += isa.InstSize
			continue
		case isa.ADDI:
			c.setX(in.Ra, c.X[in.Rb]+uint64(int64(in.Imm)))
			pc += isa.InstSize
			continue
		case isa.ANDI:
			c.setX(in.Ra, c.X[in.Rb]&uint64(uint32(in.Imm)&0x3FFF))
			pc += isa.InstSize
			continue
		case isa.ORI:
			c.setX(in.Ra, c.X[in.Rb]|uint64(uint32(in.Imm)&0x3FFF))
			pc += isa.InstSize
			continue
		case isa.XORI:
			c.setX(in.Ra, c.X[in.Rb]^uint64(uint32(in.Imm)&0x3FFF))
			pc += isa.InstSize
			continue
		case isa.SLTI:
			c.setX(in.Ra, b2i(int64(c.X[in.Rb]) < int64(in.Imm)))
			pc += isa.InstSize
			continue
		case isa.SLTIU:
			c.setX(in.Ra, b2i(c.X[in.Rb] < uint64(int64(in.Imm))))
			pc += isa.InstSize
			continue
		case isa.SLLI:
			c.setX(in.Ra, c.X[in.Rb]<<(uint(in.Imm)&63))
			pc += isa.InstSize
			continue
		case isa.SRLI:
			c.setX(in.Ra, c.X[in.Rb]>>(uint(in.Imm)&63))
			pc += isa.InstSize
			continue
		case isa.SRAI:
			c.setX(in.Ra, uint64(int64(c.X[in.Rb])>>(uint(in.Imm)&63)))
			pc += isa.InstSize
			continue
		case isa.LUI:
			c.setX(in.Ra, uint64(int64(in.Imm))<<14)
			pc += isa.InstSize
			continue
		case isa.NOR:
			c.setX(in.Ra, ^(c.X[in.Rb] | c.X[in.Rc]))
			pc += isa.InstSize
			continue

		// Multi-cycle integer ALU ops: exec's cases with the extra cycles
		// charged to the run-local ledger instead of Stats directly — the
		// flush applies the identical sum. Like the single-cycle ops they
		// touch neither memory nor PCC.
		case isa.MUL:
			nCycles += 2
			c.setX(in.Ra, c.X[in.Rb]*c.X[in.Rc])
			pc += isa.InstSize
			continue
		case isa.MULH:
			nCycles += 2
			hi, _ := bits.Mul64(c.X[in.Rb], c.X[in.Rc])
			c.setX(in.Ra, hi)
			pc += isa.InstSize
			continue
		case isa.DIV:
			nCycles += 15
			c.setX(in.Ra, udiv(true, c.X[in.Rb], c.X[in.Rc], false))
			pc += isa.InstSize
			continue
		case isa.DIVU:
			nCycles += 15
			c.setX(in.Ra, udiv(false, c.X[in.Rb], c.X[in.Rc], false))
			pc += isa.InstSize
			continue
		case isa.REM:
			nCycles += 15
			c.setX(in.Ra, udiv(true, c.X[in.Rb], c.X[in.Rc], true))
			pc += isa.InstSize
			continue
		case isa.REMU:
			nCycles += 15
			c.setX(in.Ra, udiv(false, c.X[in.Rb], c.X[in.Rc], true))
			pc += isa.InstSize
			continue

		// Capability jumps replace PCC, so they end the run: Step's latch
		// rebuild re-proves the new PCC and the target's translation.
		case isa.CJR, isa.CJALR:
			c.PC = pc
			if t := c.exec(in); t != nil {
				flush(base + pc/isa.InstSize + 1)
				return t
			}
			jump(c.PC)
			break run

		default:
			c.PC = pc
			if t := c.exec(in); t != nil {
				flush(base + pc/isa.InstSize + 1)
				return t
			}
			if c.PC != pc+isa.InstSize {
				jump(c.PC) // a jump or taken branch
			} else {
				pc = c.PC
			}
			// Everything dispatched through exec is memory-free (the
			// capability memops have cases above), so the generations
			// provably cannot have moved.
			continue
		}
		if *asGenPtr != asGen || *genPtr != page.gen {
			break // a translation or the executing page's bytes changed
		}
	}
	c.PC = pc
	flush(base + pc/isa.InstSize)
	return nil
}
