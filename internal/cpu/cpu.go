// Package cpu implements the simulated processor: an in-order,
// single-issue 64-bit core with the CHERI capability extensions, a
// MIPS-flavoured integer ISA, precise capability exceptions, and a
// deterministic cycle model driven by the cache hierarchy ("The pipeline
// is in-order and single-issue, roughly similar to the ARM7TDMI").
package cpu

import (
	"fmt"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// TrapKind classifies why execution stopped.
type TrapKind int

// Trap kinds.
const (
	TrapSyscall TrapKind = iota
	TrapBreak
	TrapNCall
	TrapCapFault
	TrapPageFault
	TrapReserved
	TrapAlignment
)

func (k TrapKind) String() string {
	switch k {
	case TrapSyscall:
		return "syscall"
	case TrapBreak:
		return "break"
	case TrapNCall:
		return "ncall"
	case TrapCapFault:
		return "capability fault"
	case TrapPageFault:
		return "page fault"
	case TrapReserved:
		return "reserved instruction"
	case TrapAlignment:
		return "alignment"
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// Trap describes a transfer of control to the kernel.
type Trap struct {
	Kind  TrapKind
	PC    uint64
	Inst  isa.Inst
	NCall int           // native call id for TrapNCall
	Cap   *cap.Fault    // for TrapCapFault
	Page  *vm.PageFault // for TrapPageFault
}

func (t *Trap) Error() string {
	switch t.Kind {
	case TrapCapFault:
		return fmt.Sprintf("trap at pc=0x%x (%v): %v", t.PC, t.Inst, t.Cap)
	case TrapPageFault:
		return fmt.Sprintf("trap at pc=0x%x (%v): %v", t.PC, t.Inst, t.Page)
	default:
		return fmt.Sprintf("trap at pc=0x%x (%v): %v", t.PC, t.Inst, t.Kind)
	}
}

// Stats counts architectural events.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	CapLoads     uint64
	CapStores    uint64
	Branches     uint64
	Taken        uint64
	Syscalls     uint64
}

// CapTracer observes capability derivations for the Figure 5 analysis.
// The CPU reports bounds-restricting derivations; run-time components
// (kernel, rtld, malloc) report their own creations with richer labels.
type CapTracer interface {
	// DeriveStack is called when compiler-generated code derives a bounded
	// capability from the stack capability.
	DeriveStack(c cap.Capability, pc uint64)
	// DeriveOther is called for all other bounds-setting derivations in
	// user code.
	DeriveOther(c cap.Capability, pc uint64)
}

// CPU is one simulated hardware thread.
type CPU struct {
	X   [isa.NumRegs]uint64
	C   [isa.NumRegs]cap.Capability
	PC  uint64
	PCC cap.Capability // bounds/permissions for instruction fetch
	DDC cap.Capability // authority for legacy loads/stores

	AS     *vm.AddressSpace
	Mem    *mem.Physical
	Hier   *cache.Hierarchy
	Fmt    cap.Format
	Tracer CapTracer

	// OnTrap observes every trap Run surfaces, in order. The differential
	// determinism suite uses it to prove the fast engine preserves trap
	// sequences exactly. The *Trap is the one Run returns, valid only
	// until the next Run or Step: copy it to keep it.
	OnTrap func(*Trap)

	// Reference runs every host-side fast path's reference: one full Step
	// per instruction and byte-at-a-time uaccess copies. Behaviour is
	// identical either way (the differential suites run both); the switch
	// exists for those suites and the ablation benchmarks.
	Reference bool

	Stats Stats

	// DecodeStats counts decoded-page and threaded-engine events
	// (non-architectural).
	DecodeStats DecodeStats

	// Data micro-TLB (see translate and tlbEntry): a small direct-mapped
	// cache of per-page translations, keyed on the address space and its
	// mutation generation, whose entries also carry their page's backing
	// arrays so scalar and capability loads/stores that hit are served
	// straight from the page (access.go). This is a simulator fast path,
	// not an architectural structure; it never changes behaviour because
	// every event that could change a translation bumps
	// vm.AddressSpace.Gen, and every event that could move a backing bumps
	// mem.Physical.Epoch.
	tlb [dtlbSize]tlbEntry

	// Decoded pages (see decode.go): per-physical-page decoded blocks plus
	// the latch Step sets for the page PC is executing from, which is
	// runBlock's entry proof, fronted by a small direct-mapped block index
	// so Step's re-latch skips the map lookup.
	decoded  map[uint64]*instPage
	latch    fetchLatch
	blockIdx [blockIdxSize]blockIdxEnt

	// tr is the trap Run and Step return (see raise).
	tr Trap
}

// blockIdxSize is the number of direct-mapped block-index entries.
const blockIdxSize = 64

type blockIdxEnt struct {
	paPage uint64
	page   *instPage
}

// dtlbSize is the number of direct-mapped micro-TLB entries (per-page,
// shared by fetch, read, and write accesses).
const dtlbSize = 64

// tlbEntry is one micro-TLB slot: a page's translation proof plus,
// optionally, its backing.
//
// The proof (as, gen, vpn, base, prot) says that at AS generation gen,
// Translate maps vpn to the frame at base for every access kind in prot.
//
// The backing (data, tags, pgen, epoch) holds the frame's byte and tag
// slices, valid while mem.Physical.Epoch still equals epoch. It is only
// ever attached after the proof for the access that filled it, and it is
// dropped with the proof (any refill for another page or generation
// clears it). A read backing (pgen nil) comes from ReadablePage and may
// serve loads only: on a snapshot-shared copy-on-write chunk its slices
// alias the shared arrays. A writable backing (pgen set) comes from
// WritablePage after a store has settled (materialized and privatized)
// the chunk, and may serve stores as well as loads. Either kind still
// needs the matching prot bit on every hit.
type tlbEntry struct {
	as   *vm.AddressSpace
	gen  uint64
	vpn  uint64
	base uint64  // frame base physical address
	prot vm.Prot // access kinds proven against Translate at this gen

	data  []byte  // page bytes; nil means no backing
	tags  []bool  // the page's tag granules
	pgen  *uint64 // the page's write-generation counter; nil for a read backing
	epoch uint64  // mem Epoch the slices were taken at
}

// backed reports whether e's backing is current. The caller has already
// matched e's proof.
func (e *tlbEntry) backed(c *CPU) bool {
	return e.data != nil && e.epoch == c.Mem.Epoch()
}

// translate resolves va with the micro-TLB fast path. An entry is valid
// only for the access kinds it has been proven for: a page first touched
// by a read must still take the full Translate walk on its first write so
// that copy-on-write resolution (and the protection check) happens exactly
// as without the TLB. Soft faults resolved inside Translate bump
// AddressSpace.Gen, which invalidates every cached entry at once. On
// return without a fault the slot for va holds va's proof.
func (c *CPU) translate(va uint64, access vm.Prot) (uint64, *vm.PageFault) {
	vpn := va >> vm.PageShift
	e := &c.tlb[vpn&(dtlbSize-1)]
	if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn && e.prot&access == access {
		return e.base + va%vm.PageSize, nil
	}
	pa, pf := c.AS.Translate(va, access)
	if pf != nil {
		return 0, pf
	}
	if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn {
		// Same page, same generation: the earlier proofs, and the backing
		// they vouch for, still hold; widen.
		e.prot |= access
		return pa, nil
	}
	*e = tlbEntry{as: c.AS, gen: c.AS.Gen, vpn: vpn, base: pa &^ (vm.PageSize - 1), prot: access}
	return pa, nil
}

// TranslateData resolves a data access through the micro-TLB on behalf of
// the uaccess subsystem, which performs kernel- and runtime-initiated
// bulk copies with the same translation discipline as guest accesses.
func (c *CPU) TranslateData(va uint64, access vm.Prot) (uint64, *vm.PageFault) {
	return c.translate(va, access)
}

// New returns a CPU bound to the given memory system. The memory's tag
// granule must be the capability width: one tag per stored capability is
// what LoadCap/StoreCap and the micro-TLB's capability fast paths assume.
func New(m *mem.Physical, h *cache.Hierarchy, f cap.Format) *CPU {
	if m.Granule() != f.Bytes {
		panic(fmt.Sprintf("cpu: memory granule %d is not the %s capability width %d", m.Granule(), f.Name, f.Bytes))
	}
	c := &CPU{Mem: m, Hier: h, Fmt: f}
	for i := range c.C {
		c.C[i] = cap.Null()
	}
	c.PCC = cap.Null()
	c.DDC = cap.Null()
	return c
}

// setX writes an integer register, keeping r0 hardwired to zero.
func (c *CPU) setX(r uint8, v uint64) {
	if r != 0 {
		c.X[r] = v
	}
}

// setC writes a capability register, keeping c0 hardwired to NULL.
func (c *CPU) setC(r uint8, v cap.Capability) {
	if r != 0 {
		c.C[r] = v
	}
}

// ReadCap returns capability register r (NULL for c0).
func (c *CPU) ReadCap(r uint8) cap.Capability { return c.C[r] }

// WriteCap sets capability register r, honouring the hardwired NULL.
func (c *CPU) WriteCap(r uint8, v cap.Capability) { c.setC(r, v) }

// raise records t as the CPU's trap and returns it. Every trap is
// reported through this one value, so taking one allocates nothing; see
// Run for how long it stays valid.
func (c *CPU) raise(t Trap) *Trap {
	c.tr = t
	return &c.tr
}

func (c *CPU) trap(kind TrapKind, in isa.Inst) *Trap {
	return c.raise(Trap{Kind: kind, PC: c.PC, Inst: in})
}

func (c *CPU) capTrap(in isa.Inst, err error) *Trap {
	if f, ok := err.(*cap.Fault); ok {
		return c.raise(Trap{Kind: TrapCapFault, PC: c.PC, Inst: in, Cap: f})
	}
	panic(fmt.Sprintf("cpu: non-capability error %v", err))
}

// Run executes until a trap occurs or max instructions retire (0 = no
// limit). It returns the trap, or nil if the instruction budget expired.
// The trap is a field of the CPU, overwritten by the next trap: it is
// valid until the next call of Run or Step, so a caller that keeps a trap
// across calls copies it.
//
// Unless Reference is set, Run alternates between the block-threaded
// engine (runBlock, which executes straight-line runs of decoded
// instructions) and single Steps (which handle everything the block engine
// exits for: page crossings, PCC changes, invalidations, misaligned PCs,
// and cold pages). The two
// interleavings retire the same instructions in the same order and charge
// the same cycles; the differential determinism suite enforces this.
func (c *CPU) Run(max uint64) *Trap {
	start := c.Stats.Instructions
	threaded := !c.Reference
	for {
		done := c.Stats.Instructions - start
		if max != 0 && done >= max {
			return nil
		}
		if threaded {
			var rem uint64
			if max != 0 {
				rem = max - done
			}
			if t := c.runBlock(rem); t != nil {
				if c.OnTrap != nil {
					c.OnTrap(t)
				}
				return t
			}
			if max != 0 && c.Stats.Instructions-start >= max {
				return nil
			}
		}
		if t := c.Step(); t != nil {
			if c.OnTrap != nil {
				c.OnTrap(t)
			}
			return t
		}
	}
}

// Step executes one instruction. On a trap, PC still addresses the
// trapping instruction; the kernel advances it after handling syscalls,
// breaks, and native calls. As with Run, the returned trap is valid
// until the next Run or Step.
func (c *CPU) Step() *Trap {
	// Instruction fetch through PCC and the I-cache (decode.go).
	in, tr := c.fetchInst()
	if tr != nil {
		return tr
	}

	c.Stats.Instructions++
	c.Stats.Cycles++
	return c.exec(in)
}

// exec executes one decoded instruction at c.PC and advances PC. The
// caller has already performed (or proven unnecessary) the fetch checks
// and charged the fetch cycle plus the base execution cycle; exec charges
// only op-specific extras (multi-cycle ALU ops, branch bubbles, data-cache
// access costs). On a trap, PC still addresses the trapping instruction.
func (c *CPU) exec(in isa.Inst) *Trap {
	next := c.PC + isa.InstSize

	switch in.Op {
	case isa.NOP:

	// ---- integer ALU ----
	case isa.ADD:
		c.setX(in.Ra, c.X[in.Rb]+c.X[in.Rc])
	case isa.SUB:
		c.setX(in.Ra, c.X[in.Rb]-c.X[in.Rc])
	case isa.MUL:
		c.Stats.Cycles += 2
		c.setX(in.Ra, c.X[in.Rb]*c.X[in.Rc])
	case isa.MULH:
		c.Stats.Cycles += 2
		hi, _ := mul128(c.X[in.Rb], c.X[in.Rc])
		c.setX(in.Ra, hi)
	case isa.DIV:
		c.Stats.Cycles += 15
		c.setX(in.Ra, udiv(true, c.X[in.Rb], c.X[in.Rc], false))
	case isa.DIVU:
		c.Stats.Cycles += 15
		c.setX(in.Ra, udiv(false, c.X[in.Rb], c.X[in.Rc], false))
	case isa.REM:
		c.Stats.Cycles += 15
		c.setX(in.Ra, udiv(true, c.X[in.Rb], c.X[in.Rc], true))
	case isa.REMU:
		c.Stats.Cycles += 15
		c.setX(in.Ra, udiv(false, c.X[in.Rb], c.X[in.Rc], true))
	case isa.AND:
		c.setX(in.Ra, c.X[in.Rb]&c.X[in.Rc])
	case isa.OR:
		c.setX(in.Ra, c.X[in.Rb]|c.X[in.Rc])
	case isa.XOR:
		c.setX(in.Ra, c.X[in.Rb]^c.X[in.Rc])
	case isa.NOR:
		c.setX(in.Ra, ^(c.X[in.Rb] | c.X[in.Rc]))
	case isa.SLL:
		c.setX(in.Ra, c.X[in.Rb]<<(c.X[in.Rc]&63))
	case isa.SRL:
		c.setX(in.Ra, c.X[in.Rb]>>(c.X[in.Rc]&63))
	case isa.SRA:
		c.setX(in.Ra, uint64(int64(c.X[in.Rb])>>(c.X[in.Rc]&63)))
	case isa.SLT:
		c.setX(in.Ra, b2i(int64(c.X[in.Rb]) < int64(c.X[in.Rc])))
	case isa.SLTU:
		c.setX(in.Ra, b2i(c.X[in.Rb] < c.X[in.Rc]))
	case isa.SEXTB:
		c.setX(in.Ra, uint64(int64(int8(c.X[in.Rb]))))
	case isa.SEXTH:
		c.setX(in.Ra, uint64(int64(int16(c.X[in.Rb]))))
	case isa.SEXTW:
		c.setX(in.Ra, uint64(int64(int32(c.X[in.Rb]))))

	case isa.ADDI:
		c.setX(in.Ra, c.X[in.Rb]+uint64(int64(in.Imm)))
	case isa.ANDI:
		c.setX(in.Ra, c.X[in.Rb]&uint64(uint32(in.Imm)&0x3FFF))
	case isa.ORI:
		c.setX(in.Ra, c.X[in.Rb]|uint64(uint32(in.Imm)&0x3FFF))
	case isa.XORI:
		c.setX(in.Ra, c.X[in.Rb]^uint64(uint32(in.Imm)&0x3FFF))
	case isa.SLTI:
		c.setX(in.Ra, b2i(int64(c.X[in.Rb]) < int64(in.Imm)))
	case isa.SLTIU:
		c.setX(in.Ra, b2i(c.X[in.Rb] < uint64(int64(in.Imm))))
	case isa.SLLI:
		c.setX(in.Ra, c.X[in.Rb]<<(uint(in.Imm)&63))
	case isa.SRLI:
		c.setX(in.Ra, c.X[in.Rb]>>(uint(in.Imm)&63))
	case isa.SRAI:
		c.setX(in.Ra, uint64(int64(c.X[in.Rb])>>(uint(in.Imm)&63)))
	case isa.LUI:
		c.setX(in.Ra, uint64(int64(in.Imm))<<14)

	// ---- control flow ----
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		c.Stats.Branches++
		var taken bool
		a, b := c.X[in.Ra], c.X[in.Rb]
		switch in.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int64(a) < int64(b)
		case isa.BGE:
			taken = int64(a) >= int64(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		if taken {
			c.Stats.Taken++
			c.Stats.Cycles++ // taken-branch bubble
			next = c.PC + uint64(int64(in.Imm))*isa.InstSize
		}
	case isa.CBTS, isa.CBTU:
		c.Stats.Branches++
		taken := c.C[in.Ra].Tag() == (in.Op == isa.CBTS)
		if taken {
			c.Stats.Taken++
			c.Stats.Cycles++
			next = c.PC + uint64(int64(in.Imm))*isa.InstSize
		}
	case isa.J:
		c.Stats.Cycles++
		next = c.PC + uint64(int64(in.Imm))*isa.InstSize
	case isa.JAL:
		c.Stats.Cycles++
		c.setX(isa.RRA, c.PC+isa.InstSize)
		next = c.PC + uint64(int64(in.Imm))*isa.InstSize
	case isa.JR:
		c.Stats.Cycles++
		next = c.X[in.Ra]
	case isa.JALR:
		c.Stats.Cycles++
		c.setX(in.Ra, c.PC+isa.InstSize)
		next = c.X[in.Rb]
	case isa.CJR:
		cb := c.C[in.Ra]
		if err := cb.CheckDeref(cb.Addr(), isa.InstSize, cap.PermExecute); err != nil {
			return c.capTrap(in, err)
		}
		c.Stats.Cycles++
		c.PCC = cb
		next = cb.Addr()
	case isa.CJALR:
		cb := c.C[in.Rb]
		if err := cb.CheckDeref(cb.Addr(), isa.InstSize, cap.PermExecute); err != nil {
			return c.capTrap(in, err)
		}
		c.Stats.Cycles++
		c.setC(in.Ra, c.Fmt.SetAddr(c.PCC, c.PC+isa.InstSize))
		c.PCC = cb
		next = cb.Addr()
	case isa.CJAL:
		c.Stats.Cycles++
		c.setC(isa.CRA, c.Fmt.SetAddr(c.PCC, c.PC+isa.InstSize))
		next = c.PC + uint64(int64(in.Imm))*isa.InstSize

	// ---- traps ----
	case isa.SYSCALL:
		c.Stats.Syscalls++
		return c.trap(TrapSyscall, in)
	case isa.BREAK:
		return c.trap(TrapBreak, in)
	case isa.NCALL:
		t := c.trap(TrapNCall, in)
		t.NCall = int(in.Imm)
		return t

	// ---- legacy memory (through DDC) ----
	case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD:
		ea := c.X[in.Rb] + uint64(int64(in.Imm))
		v, t := c.loadInt(in, c.DDC, ea)
		if t != nil {
			return t
		}
		c.setX(in.Ra, v)
	case isa.SB, isa.SH, isa.SW, isa.SD:
		ea := c.X[in.Rb] + uint64(int64(in.Imm))
		if t := c.storeInt(in, c.DDC, ea, c.X[in.Ra]); t != nil {
			return t
		}

	// ---- capability-relative memory ----
	case isa.CLB, isa.CLBU, isa.CLH, isa.CLHU, isa.CLW, isa.CLWU, isa.CLD:
		ea := c.C[in.Rb].Addr() + uint64(int64(in.Imm))
		v, t := c.loadInt(in, c.C[in.Rb], ea)
		if t != nil {
			return t
		}
		c.setX(in.Ra, v)
	case isa.CSB, isa.CSH, isa.CSW, isa.CSD:
		ea := c.C[in.Rb].Addr() + uint64(int64(in.Imm))
		if t := c.storeInt(in, c.C[in.Rb], ea, c.X[in.Ra]); t != nil {
			return t
		}
	case isa.CLC, isa.CLCB, isa.CSC, isa.CSCB:
		if err := c.capMem(in); err != nil {
			return c.accessTrap(in, err)
		}

	// ---- capability manipulation ----
	case isa.CMOVE:
		c.setC(in.Ra, c.C[in.Rb])
	case isa.CINCOFF:
		c.setC(in.Ra, c.Fmt.IncAddr(c.C[in.Rb], int64(c.X[in.Rc])))
	case isa.CINCOFFI:
		c.setC(in.Ra, c.Fmt.IncAddr(c.C[in.Rb], int64(in.Imm)))
	case isa.CSETADDR:
		c.setC(in.Ra, c.Fmt.SetAddr(c.C[in.Rb], c.X[in.Rc]))
	case isa.CGETADDR:
		c.setX(in.Ra, c.C[in.Rb].Addr())
	case isa.CSETBNDS, isa.CSETBNDSI, isa.CSETBNDSE:
		cb := c.C[in.Rb]
		length := c.X[in.Rc]
		if in.Op == isa.CSETBNDSI {
			length = uint64(int64(in.Imm))
		}
		var nc cap.Capability
		var err error
		if in.Op == isa.CSETBNDSE {
			nc, err = c.Fmt.SetBoundsExact(cb, cb.Addr(), length)
		} else {
			nc, err = c.Fmt.SetBounds(cb, cb.Addr(), length)
		}
		if err != nil {
			return c.capTrap(in, err)
		}
		if c.Tracer != nil {
			// A derivation is stack-sourced when its authority still
			// carries the stack capability's bounds (address-of-local
			// sequences offset the cursor before restricting bounds).
			stack := c.C[isa.CSP]
			if in.Rb == isa.CSP || in.Rb == isa.CFP ||
				(stack.Tag() && cb.Base() == stack.Base() && cb.Top() == stack.Top()) {
				c.Tracer.DeriveStack(nc, c.PC)
			} else {
				c.Tracer.DeriveOther(nc, c.PC)
			}
		}
		c.setC(in.Ra, nc)
	case isa.CANDPERM:
		c.setC(in.Ra, c.C[in.Rb].AndPerms(cap.Perm(c.X[in.Rc])))
	case isa.CCLRTAG:
		c.setC(in.Ra, c.C[in.Rb].ClearTag())
	case isa.CGETTAG:
		c.setX(in.Ra, b2i(c.C[in.Rb].Tag()))
	case isa.CGETBASE:
		c.setX(in.Ra, c.C[in.Rb].Base())
	case isa.CGETLEN:
		c.setX(in.Ra, c.C[in.Rb].Len())
	case isa.CGETPERM:
		c.setX(in.Ra, uint64(c.C[in.Rb].Perms()))
	case isa.CGETOFF:
		c.setX(in.Ra, c.C[in.Rb].Offset())
	case isa.CGETTYPE:
		c.setX(in.Ra, uint64(c.C[in.Rb].OType()))
	case isa.CSEAL:
		nc, err := c.C[in.Rb].Seal(c.C[in.Rc])
		if err != nil {
			return c.capTrap(in, err)
		}
		c.setC(in.Ra, nc)
	case isa.CUNSEAL:
		nc, err := c.C[in.Rb].Unseal(c.C[in.Rc])
		if err != nil {
			return c.capTrap(in, err)
		}
		c.setC(in.Ra, nc)
	case isa.CFROMPTR:
		if c.X[in.Rc] == 0 {
			c.setC(in.Ra, cap.Null())
		} else {
			c.setC(in.Ra, c.Fmt.SetAddr(c.C[in.Rb], c.C[in.Rb].Base()+c.X[in.Rc]))
		}
	case isa.CTOPTR:
		cb, ct := c.C[in.Rb], c.C[in.Rc]
		if !cb.Tag() {
			c.setX(in.Ra, 0)
		} else {
			c.setX(in.Ra, cb.Addr()-ct.Base())
		}
	case isa.CSUB:
		c.setX(in.Ra, c.C[in.Rb].Addr()-c.C[in.Rc].Addr())
	case isa.CRRL:
		c.setX(in.Ra, c.Fmt.RepresentableLength(c.X[in.Rb]))
	case isa.CRAM:
		c.setX(in.Ra, c.Fmt.RepresentableAlignmentMask(c.X[in.Rb]))
	case isa.CEXEQ:
		c.setX(in.Ra, b2i(c.C[in.Rb].Equal(c.C[in.Rc])))
	case isa.CGETPCC:
		c.setC(in.Ra, c.Fmt.SetAddr(c.PCC, c.PC))
	case isa.CRDDDC:
		c.setC(in.Ra, c.DDC)
	case isa.CWRDDC:
		if !c.PCC.HasPerm(cap.PermSystemRegs) {
			return c.capTrap(in, &cap.Fault{Cause: cap.FaultPermSystemRegs, Cap: c.PCC})
		}
		c.DDC = c.C[in.Ra]

	default:
		return c.trap(TrapReserved, in)
	}

	c.PC = next
	return nil
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func udiv(signed bool, a, b uint64, rem bool) uint64 {
	if b == 0 {
		return 0 // MIPS-style: division by zero is UNPREDICTABLE; we define 0
	}
	if signed {
		if rem {
			return uint64(int64(a) % int64(b))
		}
		return uint64(int64(a) / int64(b))
	}
	if rem {
		return a % b
	}
	return a / b
}

func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al * bl
	lo = t & mask
	carry := t >> 32
	t = ah*bl + carry
	t2 := al*bh + t&mask
	lo |= t2 << 32
	hi = ah*bh + t>>32 + t2>>32
	return hi, lo
}
