package cpu

import (
	"encoding/binary"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// Decoded pages feed the block-threaded engine (threaded.go). On first
// execution of a page the whole page is decoded into a block keyed by its
// physical page number. Every Step performs the full fetch — PCC check,
// translation, I-cache charge — and, unless the CPU runs its Reference,
// takes the instruction from the block and records in the latch what that
// fetch proved:
//
//   - the PCC register it was checked under, so while PCC is bit-identical
//     the tag/seal/permission checks still hold and only the bounds
//     compare depends on PC;
//   - the address space and its mutation generation, so while both are
//     unchanged the translation is the one Translate would return (the
//     same discipline as the micro-TLB, which bumps vm.AddressSpace.Gen on
//     every map, unmap, protect, demand-zero, COW, and swap event);
//   - the physical page and the write generation (mem.Physical.PageGen)
//     its block was decoded at, so while that is unchanged the block still
//     mirrors the bytes in memory. Every layer that can change executable
//     bytes funnels through the mem.Physical mutators — guest stores
//     (self-modifying code), kernel image loading, rtld relocation, COW
//     copies, and swap-in — and each of those bumps the page counter.
//
// runBlock is the latch's only reader: it re-validates the latch once on
// entry and then runs straight-line code from the block.

// instPage is one decoded physical page: PageSize/InstSize instructions
// plus the mem write generation the decode was taken at.
type instPage struct {
	gen   uint64
	insts [vm.PageSize / isa.InstSize]isa.Inst
}

// fetchLatch records what Step's last fetch proved for the current (PCC,
// address space, page) triple.
type fetchLatch struct {
	page   *instPage
	as     *vm.AddressSpace
	asGen  uint64
	pcc    cap.Capability
	vaPage uint64 // virtual page base of PC
	paPage uint64 // physical page base it translates to
}

// DecodeStats counts decoded-page and threaded-engine events. These are
// simulator bookkeeping, not architectural state: they are deliberately
// kept out of Stats so reference and fast runs report identical Stats.
type DecodeStats struct {
	// Hits always equals Threaded. bench/main.go reads it.
	Hits uint64
	// Misses counts Step's fetches outside Reference, so there
	// Hits+Misses counts every retired instruction. bench/main.go reads
	// it.
	Misses  uint64
	Decodes uint64 // whole-page decodes (first touch or invalidation)
	Flushes uint64 // explicit SyncICache calls

	// Threaded counts instructions retired inside the block-threaded
	// engine; Blocks counts the straight-line runs they were grouped into.
	Threaded uint64
	Blocks   uint64

	// Chains is always zero; bench/main.go still reads it.
	Chains uint64
	// IndirectHits is always zero; bench/main.go still reads it.
	IndirectHits uint64
	// IndirectMisses is always zero; bench/main.go still reads it.
	IndirectMisses uint64
}

const pageOffMask = vm.PageSize - 1

// pageFor returns the decoded block for the physical page containing pa,
// (re)decoding it if the page's bytes changed since the last decode. A
// small direct-mapped block index in front of the map serves the hot path
// (page-boundary crossings revisit the same few pages);
// the map remains the backing store, so an index conflict only costs the
// map lookup, never a re-decode.
func (c *CPU) pageFor(paPage uint64) *instPage {
	gen := c.Mem.PageGen(paPage)
	e := &c.blockIdx[(paPage>>vm.PageShift)&(blockIdxSize-1)]
	if p := e.page; p != nil && e.paPage == paPage && p.gen == gen {
		return p
	}
	p := c.decoded[paPage]
	if p != nil && p.gen == gen {
		e.paPage, e.page = paPage, p
		return p
	}
	if p == nil {
		p = &instPage{}
		if c.decoded == nil {
			c.decoded = map[uint64]*instPage{}
		}
		c.decoded[paPage] = p
	}
	var raw [vm.PageSize]byte
	c.Mem.ReadBytes(paPage, raw[:])
	for i := range p.insts {
		p.insts[i] = isa.Decode(binary.LittleEndian.Uint32(raw[i*isa.InstSize:]))
	}
	p.gen = gen
	e.paPage, e.page = paPage, p
	c.DecodeStats.Decodes++
	return p
}

// SyncICache drops every decoded block and the fetch latch, modelling an
// explicit instruction-cache synchronisation. The generation checks make
// the cache self-invalidating, so this is defence in depth: the kernel
// calls it after building a process image and the run-time linker after
// relocation, the points where a real OS would sync the I-cache.
func (c *CPU) SyncICache() {
	c.decoded = nil
	c.latch = fetchLatch{}
	// The block index must drop with the map: a surviving entry would
	// resurrect a pre-sync decoded page whose generation still matches,
	// defeating the explicit flush.
	c.blockIdx = [blockIdxSize]blockIdxEnt{}
	c.DecodeStats.Flushes++
}

// fetchInst performs the instruction fetch for Step: PCC check,
// translation, I-cache cycle charge, and decode. Outside Reference an
// aligned fetch takes its instruction from the page's decoded block and
// latches the proof for runBlock.
func (c *CPU) fetchInst() (isa.Inst, *Trap) {
	if err := c.PCC.CheckDeref(c.PC, isa.InstSize, cap.PermExecute); err != nil {
		return isa.Inst{}, c.capTrap(isa.Inst{}, err)
	}
	pa, pf := c.translate(c.PC, vm.ProtExec)
	if pf != nil {
		return isa.Inst{}, c.raise(Trap{Kind: TrapPageFault, PC: c.PC, Page: pf})
	}
	c.Stats.Cycles += c.Hier.Fetch(pa, isa.InstSize) - 1 // L1I hit is pipelined
	if c.Reference {
		return isa.Decode(uint32(c.Mem.Load(pa, isa.InstSize))), nil
	}
	c.DecodeStats.Misses++
	if c.PC%isa.InstSize != 0 {
		// Misaligned PCs fetch the word at the raw address, which is not
		// one of the page's aligned slots; decode it directly.
		return isa.Decode(uint32(c.Mem.Load(pa, isa.InstSize))), nil
	}
	paPage := pa &^ uint64(pageOffMask)
	page := c.pageFor(paPage)
	c.latch = fetchLatch{
		page:   page,
		as:     c.AS,
		asGen:  c.AS.Gen,
		pcc:    c.PCC,
		vaPage: c.PC &^ uint64(pageOffMask),
		paPage: paPage,
	}
	return page.insts[(pa&pageOffMask)/isa.InstSize], nil
}

// Compile-time guarantee that the generation-tracking page in mem matches
// the MMU page: decoded blocks are keyed by vm page but validated
// with mem page generations.
var _ [0]struct{} = [vm.PageShift - mem.PageShift]struct{}{}
