package cpu

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// scalarMemOp is the pre-resolved description of a scalar load/store for
// the threaded engine's inline dispatch: the access size and the
// sign-extension shift (64-8*size for signed loads, 0 otherwise). The
// store/cheri split is encoded in the dispatch itself — each
// authority/direction combination has its own jump-table case — so the
// table carries only what varies within a case. A zero size marks ops
// that are not scalar memory accesses. The fields are deliberately
// byte-sized: the table is indexed per retired instruction, and a
// two-byte entry loads in one half-word.
type scalarMemOp struct {
	size  uint8
	shift uint8
}

var scalarMemOps [isa.NumOps]scalarMemOp

func init() {
	type def struct {
		op     isa.Op
		size   uint64
		signed bool
	}
	for _, d := range []def{
		{isa.LB, 1, true}, {isa.LBU, 1, false},
		{isa.LH, 2, true}, {isa.LHU, 2, false},
		{isa.LW, 4, true}, {isa.LWU, 4, false},
		{isa.LD, 8, false},
		{isa.SB, 1, false}, {isa.SH, 2, false},
		{isa.SW, 4, false}, {isa.SD, 8, false},
		{isa.CLB, 1, true}, {isa.CLBU, 1, false},
		{isa.CLH, 2, true}, {isa.CLHU, 2, false},
		{isa.CLW, 4, true}, {isa.CLWU, 4, false},
		{isa.CLD, 8, false},
		{isa.CSB, 1, false}, {isa.CSH, 2, false},
		{isa.CSW, 4, false}, {isa.CSD, 8, false},
	} {
		mo := scalarMemOp{size: uint8(d.size)}
		if d.signed {
			mo.shift = uint8(64 - 8*d.size)
		}
		scalarMemOps[d.op] = mo
	}
}

// Block-threaded execution engine: phase 2 of the simulator fast path,
// extended into superblocks (phase 3).
//
// With the decoded-instruction cache (decode.go), every Step still pays a
// full latch validation — an address-space compare, two generation
// compares, and a bit-for-bit PCC compare — plus the Step/fetchInst call
// overhead, per instruction. runBlock hoists that validation out of the
// loop: it proves the latch once, then executes decoded instructions
// directly from blocks, re-checking per instruction only what an
// instruction can actually change:
//
//   - PC instruction-aligned, maintained by induction (every inline PC
//     advance is a multiple of InstSize; transfer targets and exec-set
//     PCs are checked where they are produced);
//   - PC in PCC bounds, as one subtract-and-compare against a
//     precomputed fetch window (fetchWindow above). The window is fixed
//     until PCC is replaced — which only CJR/CJALR do, and the indirect
//     path recomputes it after every predicted transfer. An
//     out-of-bounds PC exits to the Step slow path, which raises the
//     identical capability fault;
//   - AddressSpace.Gen and the executing page's mem.PageGen unchanged.
//     Only a memory-accessing instruction can change either (a store
//     mutates page bytes; a translation resolves soft faults), so the
//     probe runs exactly after loads, stores, and capability loads/stores
//     — after anything else the generations provably cannot have moved.
//
// Superblock chaining: when PC leaves the current page through a direct
// branch, an in-PCC indirect jump (JR/JALR), or straight-line fallthrough,
// the run no longer exits. Each decoded page carries a small direct-mapped
// set of successor links (decode.go, chainLink); the transition
// re-validates only what the page change can affect — target alignment,
// PCC bounds for the new target, and the link's (AS, AS.Gen, target
// PageGen) proof — then swaps the run's page state and continues. The
// bounds check deliberately happens BEFORE any translation: Step's slow
// path checks PCC first too, and translating first could resolve a soft
// fault (COW copy, demand-zero) that the in-order machine would never
// reach, skewing physical frames and cycle counts. A link that fails
// validation is re-proved through the same translate walk Step would
// perform (severed instead if that walk faults, leaving Step to raise the
// identical fault), so SMC, mprotect, munmap, COW, and swap semantics are
// exactly those of the unchained engine. CJR/CJALR still exit: they
// replace PCC, and the full fetchInst latch rebuild re-proves the
// tag/seal/permission checks a chain traversal never re-examines.
//
// Exit conditions, exhaustively: trap (returned to the kernel), budget
// exhausted, misaligned PC, PC out of PCC bounds, PCC replaced
// (CJR/CJALR), AS.Gen or executing PageGen changed, chain target
// unprovable (translation fault), or superblocks disabled and PC leaves
// the page.
//
// Cycle-ledger batching: the per-instruction base charges (one retired
// instruction, plus the I-cache fetch cost) accumulate in run-local
// counters and are flushed to Stats when the run ends — before any trap is
// surfaced, so the kernel and any OnTrap observer always see exact
// architectural counts. Consecutive fetches from one L1I line are batched
// the same way: only the first issues a real Hierarchy.Fetch; the rest are
// guaranteed hits (nothing but instruction fetches touches L1I state) and
// are applied as one FetchRepeats bulk update before the next real fetch
// or flush, leaving clock, LRU, and counters bit-identical to per-fetch
// issue. Op-specific extras (multi-cycle ALU ops, branch bubbles,
// data-cache costs) are charged directly by exec, exactly as on the Step
// path; the final sums are bit-identical either way. Nothing in the
// simulator reads Stats or cache state mid-run, so deferring the flushes
// cannot perturb LRU decisions or miss counts.

// fetchWindow reduces pcc's bounds to the window of PCs from which a
// one-instruction fetch stays in bounds, as a base and a length: pc is in
// bounds iff pc-lo < span, a single subtract-and-compare per retired
// instruction in place of InBounds' three (the tag, seal, and permission
// halves of the execute proof are covered by the latch's bit-for-bit PCC
// compare, exactly as for the per-instruction InBounds this replaces).
func fetchWindow(pcc cap.Capability) (lo, span uint64) {
	lo = pcc.Base()
	if l := pcc.Len(); l >= isa.InstSize {
		span = l - isa.InstSize + 1
	}
	return
}

// runBlock executes decoded instructions from the latched page — chaining
// across pages — until an exit condition, retiring at most rem
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
	fetchLo, fetchSpan := fetchWindow(c.PCC)
	// Hot-probe pointers hoisted out of the loop: the executing page's
	// write-generation counter (re-aimed on every page swap) and the
	// address space's. c.AS cannot change inside a run — nothing the run
	// dispatches switches address spaces; a context switch happens in the
	// kernel, between runs — so the pointer stays aimed at the live
	// counter even as translations bump it.
	genPtr := c.Mem.PageGenPtr(paPage)
	asGenPtr := &c.AS.Gen
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
	var nInst, nCycles, nLoads, nStores, nBranches, nTaken uint64

	// Pending same-line instruction fetches (see the batching note above):
	// [lineBase, lineEnd) spans the L1I line of the last real fetch;
	// lineRepeats counts fetches from it not yet applied to the cache
	// model. The span compare keeps the per-instruction check free of
	// method calls; the line index is recomputed only at flush time.
	lineSize := c.Hier.L1I.Config().LineSize
	linePow2 := lineSize&(lineSize-1) == 0    // mask vs. modulo at line turnover
	lineBase, lineEnd := uint64(1), uint64(0) // empty span: no line fetched yet
	var lineRepeats uint64
	flushLine := func() {
		if lineRepeats != 0 {
			nCycles += c.Hier.FetchRepeats(c.Hier.FetchLine(lineBase), lineRepeats)
			lineRepeats = 0
		}
	}
	flush := func() {
		flushLine()
		if nInst == 0 {
			return
		}
		c.Stats.Instructions += nInst
		c.Stats.Cycles += nCycles
		c.Stats.Loads += nLoads
		c.Stats.Stores += nStores
		c.Stats.Branches += nBranches
		c.Stats.Taken += nTaken
		c.DecodeStats.Hits += nInst
		c.DecodeStats.Threaded += nInst
		c.DecodeStats.Blocks++
	}
run:
	for {
		if nInst >= limit {
			break
		}
		off := pc - vaPage
		if off >= vm.PageSize {
			// PC left the page: chain to the successor block. PCC bounds
			// come first (matching Step's check order — see the package
			// comment); the link proof or a fresh translate walk covers the
			// rest. Chaining retires nothing, so the next iteration either
			// executes from the new page or exits.
			if c.NoSuperblocks || pc%isa.InstSize != 0 ||
				!c.PCC.InBounds(pc, isa.InstSize) {
				break // Step raises any fault identically
			}
			tva := pc &^ uint64(pageOffMask)
			lk := &page.links[(tva>>vm.PageShift)&(linkWays-1)]
			if lk.page == nil || lk.as != c.AS || lk.asGen != c.AS.Gen ||
				lk.vaPage != tva || c.Mem.PageGen(lk.paPage) != lk.page.gen {
				pa, pf := c.translate(pc, vm.ProtExec)
				if pf != nil {
					lk.page = nil
					c.DecodeStats.Severs++
					break // Step repeats the walk and raises the fault
				}
				tpa := pa &^ uint64(pageOffMask)
				// AS.Gen is re-read after the translate: resolving a soft
				// fault bumps it, and the link must record the generation
				// its proof holds at.
				*lk = chainLink{page: c.pageFor(tpa), as: c.AS,
					asGen: c.AS.Gen, vaPage: tva, paPage: tpa}
			}
			page, vaPage, paPage, asGen = lk.page, lk.vaPage, lk.paPage, lk.asGen
			genPtr = c.Mem.PageGenPtr(paPage)
			l.page, l.vaPage, l.paPage, l.asGen = page, vaPage, paPage, asGen
			c.DecodeStats.Chains++
			continue
		}
		// pc is instruction-aligned here by induction: the latch head check
		// proves it at entry, every inline advance is a multiple of
		// InstSize, transfer targets are checked where they are installed
		// (chain and indirect paths), and an exec-set PC is re-checked at
		// the exec call site below.
		if pc-fetchLo >= fetchSpan {
			break // Step's slow path raises the identical bounds fault
		}
		// Identical I-cache accounting to the Step path: the fetch charge
		// subsumes the base execution cycle (an L1I hit costs 1). Same-line
		// fetches accumulate in lineRepeats and are applied in bulk.
		pa := paPage + off
		if pa >= lineBase && pa < lineEnd {
			lineRepeats++
		} else {
			flushLine()
			nCycles += c.Hier.Fetch(pa, isa.InstSize)
			if linePow2 {
				lineBase = pa &^ (lineSize - 1)
			} else {
				lineBase = pa - pa%lineSize // variable-divisor fallback
			}
			lineEnd = lineBase + lineSize
		}
		nInst++
		in := page.insts[off/isa.InstSize]
		// One jump-table dispatch for every instruction class: scalar and
		// capability memory ops fall OUT of the switch to the generation
		// probe below; everything else continues (or exits) directly,
		// since nothing but a memory op can move the generations.
		switch in.Op {
		// Inline scalar loads/stores: same LoadVia/StoreVia sequence and
		// Stats updates as exec's loadInt/storeInt, minus the per-op
		// opSize lookup. Scalar memory ops never replace PCC, so the
		// CJR/CJALR exit check is skipped too. The four authority/direction
		// combinations get their own jump-table entries: the outer switch
		// already resolved in.Op, so re-deriving "cheri?" and "store?" from
		// table flags would re-branch on data the dispatch has settled.
		case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD:
			mo := scalarMemOps[in.Op]
			v, err := c.loadViaP(&c.DDC, c.X[in.Rb]+uint64(int64(in.Imm)), uint64(mo.size))
			if err != nil {
				c.PC = pc
				flush()
				return c.accessTrap(in, err)
			}
			nLoads++
			if mo.shift != 0 {
				v = uint64(int64(v<<mo.shift) >> mo.shift)
			}
			c.setX(in.Ra, v)
			pc += isa.InstSize

		case isa.CLB, isa.CLBU, isa.CLH, isa.CLHU, isa.CLW, isa.CLWU, isa.CLD:
			mo := scalarMemOps[in.Op]
			auth := &c.C[in.Rb]
			v, err := c.loadViaP(auth, auth.Addr()+uint64(int64(in.Imm)), uint64(mo.size))
			if err != nil {
				c.PC = pc
				flush()
				return c.accessTrap(in, err)
			}
			nLoads++
			if mo.shift != 0 {
				v = uint64(int64(v<<mo.shift) >> mo.shift)
			}
			c.setX(in.Ra, v)
			pc += isa.InstSize

		case isa.SB, isa.SH, isa.SW, isa.SD:
			mo := scalarMemOps[in.Op]
			if err := c.storeViaP(&c.DDC, c.X[in.Rb]+uint64(int64(in.Imm)), uint64(mo.size), c.X[in.Ra]); err != nil {
				c.PC = pc
				flush()
				return c.accessTrap(in, err)
			}
			nStores++
			pc += isa.InstSize

		case isa.CSB, isa.CSH, isa.CSW, isa.CSD:
			mo := scalarMemOps[in.Op]
			auth := &c.C[in.Rb]
			if err := c.storeViaP(auth, auth.Addr()+uint64(int64(in.Imm)), uint64(mo.size), c.X[in.Ra]); err != nil {
				c.PC = pc
				flush()
				return c.accessTrap(in, err)
			}
			nStores++
			pc += isa.InstSize

		case isa.CLC, isa.CLCB, isa.CSC, isa.CSCB:
			// Capability loads/stores — the only ops outside the scalar
			// table that can touch memory (and therefore bump AS.Gen via a
			// soft fault resolved in translate, or a page's write
			// generation via a store): capMem, exactly as exec calls it,
			// minus the dispatch. Like the scalar memops above they advance
			// PC by one instruction and fall through to the generation
			// probe.
			if err := c.capMem(in); err != nil {
				c.PC = pc
				flush()
				return c.accessTrap(in, err)
			}
			pc += isa.InstSize

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
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BNE:
			nBranches++
			if c.X[in.Ra] != c.X[in.Rb] {
				nTaken++
				nCycles++
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BLT:
			nBranches++
			if int64(c.X[in.Ra]) < int64(c.X[in.Rb]) {
				nTaken++
				nCycles++
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BGE:
			nBranches++
			if int64(c.X[in.Ra]) >= int64(c.X[in.Rb]) {
				nTaken++
				nCycles++
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BLTU:
			nBranches++
			if c.X[in.Ra] < c.X[in.Rb] {
				nTaken++
				nCycles++
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.BGEU:
			nBranches++
			if c.X[in.Ra] >= c.X[in.Rb] {
				nTaken++
				nCycles++
				pc += uint64(int64(in.Imm)) * isa.InstSize
			} else {
				pc += isa.InstSize
			}
			continue
		case isa.J:
			nCycles++
			pc += uint64(int64(in.Imm)) * isa.InstSize
			continue
		case isa.JAL:
			nCycles++
			c.setX(isa.RRA, pc+isa.InstSize)
			pc += uint64(int64(in.Imm)) * isa.InstSize
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
			hi, _ := mul128(c.X[in.Rb], c.X[in.Rc])
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

		// Indirect transfers: the one exit superblock chaining left
		// behind. indirectTransfer (indirect.go) serves the transfer
		// from the target cache or the return stack when its cached
		// proof still stands, re-proves and fills on a miss, and
		// reports whether the run can continue. The body lives out of
		// line deliberately: its capability-typed locals are big
		// enough to wreck register allocation for the whole loop if
		// inlined here.
		case isa.CJR, isa.CJALR:
			if c.NoIndirectCache {
				c.PC = pc
				if t := c.exec(in); t != nil {
					flush()
					return t
				}
				pc = c.PC
				break run // PCC replaced; the Step latch rebuild re-proves it
			}
			rs := runState{pc: pc, page: page, vaPage: vaPage,
				paPage: paPage, asGen: asGen}
			inRun, err := c.indirectTransfer(in, &rs, nInst < limit)
			if err != nil {
				// The capability check failed: identical trap to exec's
				// CJR/CJALR cases, at the transfer's own PC.
				c.PC = pc
				flush()
				return c.capTrap(in, err)
			}
			nCycles++ // exec's Cycles++ for the retired transfer
			pc = rs.pc
			l.pcc = c.PCC
			if !inRun {
				break run // Step takes over at the target
			}
			page, vaPage, paPage, asGen = rs.page, rs.vaPage, rs.paPage, rs.asGen
			fetchLo, fetchSpan = fetchWindow(c.PCC)
			genPtr = c.Mem.PageGenPtr(paPage)
			l.page, l.vaPage, l.paPage, l.asGen = page, vaPage, paPage, asGen
			continue

		default:
			c.PC = pc
			if t := c.exec(in); t != nil {
				flush()
				return t
			}
			pc = c.PC
			if pc%isa.InstSize != 0 {
				break run // exec set a misaligned PC; only it can (see above)
			}
			// Everything dispatched through exec is memory-free (the
			// capability memops took the capMem case above), so the
			// generations provably cannot have moved.
			continue
		}
		if *asGenPtr != asGen || *genPtr != page.gen {
			break // a translation or the executing page's bytes changed
		}
	}
	c.PC = pc
	flush()
	return nil
}
