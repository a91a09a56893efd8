package cpu

import (
	"encoding/binary"
	"fmt"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// AlignmentError reports a misaligned access (CHERI traps on under-aligned
// accesses; one of the paper's PostgreSQL test failures is exactly this).
type AlignmentError struct {
	VA   uint64
	Size uint64
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("misaligned access: va=0x%x size=%d", e.VA, e.Size)
}

// accessTrap converts an access error into a trap.
func (c *CPU) accessTrap(in isa.Inst, err error) *Trap {
	switch e := err.(type) {
	case *cap.Fault:
		return c.raise(Trap{Kind: TrapCapFault, PC: c.PC, Inst: in, Cap: e})
	case *vm.PageFault:
		return c.raise(Trap{Kind: TrapPageFault, PC: c.PC, Inst: in, Page: e})
	case *AlignmentError:
		return c.raise(Trap{Kind: TrapAlignment, PC: c.PC, Inst: in})
	}
	panic(fmt.Sprintf("cpu: unexpected access error %T: %v", err, err))
}

// scalarMemOp is the pre-resolved description of a scalar load/store,
// the one both engines read: the access size and the sign-extension
// shift (64-8*size for signed loads, 0 otherwise). The store/cheri split
// is encoded in each engine's dispatch itself — in the threaded engine
// each authority/direction combination has its own jump-table case — so
// the table carries only what varies within a case. A zero size marks ops
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

func (c *CPU) loadInt(in isa.Inst, auth cap.Capability, ea uint64) (uint64, *Trap) {
	mo := scalarMemOps[in.Op]
	v, err := c.LoadVia(auth, ea, uint64(mo.size))
	if err != nil {
		return 0, c.accessTrap(in, err)
	}
	c.Stats.Loads++
	sh := mo.shift & 63 // sign-extend; a zero shift leaves v as it is
	return uint64(int64(v<<sh) >> sh), nil
}

func (c *CPU) storeInt(in isa.Inst, auth cap.Capability, ea uint64, v uint64) *Trap {
	if err := c.StoreVia(auth, ea, uint64(scalarMemOps[in.Op].size), v); err != nil {
		return c.accessTrap(in, err)
	}
	c.Stats.Stores++
	return nil
}

// The data hit path. Nearly every guest load and store hits the micro-TLB
// on a backed entry and the L1D on its set's most recent way. Each
// direction has one function, load and store, serving scalar and
// capability accesses alike, and each states the hit test once: the
// access is aligned and authorized, the micro-TLB entry for ea holds the
// direction's proof at the run's generation and a backing, and the L1D
// line is its set's most recent (cache.Probe.Hit). A hit is served from
// the backing, and its L1D access is counted in the dataRun rather than
// charged: the run applies its hits with one Cache.Hits call when it
// ends (Hits says why that is bit-identical). An access that passes all
// but the L1D test is served from the backing too, charging
// Hierarchy.Data at once. Anything else — a fault, a micro-TLB miss, an
// unbacked page — runs the general sequence from the start; the test
// changes no state when it declines.

// dataRun is the state the hit tests read that stays fixed while the
// threaded engine runs, and the hits they have counted.
//
// as and gen are the address space and its generation when the run began.
// Any change to a translation moves AS.Gen, the run ends as soon as it
// does (see runBlock), and nothing switches address spaces inside a run,
// so an entry that matches them matches the live AS and generation. A
// caller outside a run sets one up for each access (newDataRun) and
// applies its hits at once (settle).
type dataRun struct {
	as   *vm.AddressSpace
	gen  uint64
	l1d  cache.Probe
	hits uint64 // L1D way-0 hits not yet applied to the cache
}

func (c *CPU) newDataRun() dataRun {
	return dataRun{as: c.AS, gen: c.AS.Gen, l1d: c.Hier.L1D.Probe()}
}

// settle applies r's counted hits to the L1D and the cycle count.
func (c *CPU) settle(r *dataRun) {
	c.Stats.Cycles += c.Hier.L1D.Hits(r.hits)
	r.hits = 0
}

// load performs a load of size bytes at ea through auth: a scalar load
// (size 1, 2, 4 or 8) returns the value; a capability load (size
// cap.Bytes) decodes the capability into *dst, unless dst is nil,
// stripping its tag without PermLoadCap, and returns 0. A scalar load
// passes a nil dst, and so does a capability load into c0 (see capDst).
func (c *CPU) load(r *dataRun, auth *cap.Capability, ea, size uint64, dst *cap.Capability) (uint64, error) {
	vpn := ea >> vm.PageShift
	e := &c.tlb[vpn&(dtlbSize-1)]
	off := ea & pageOffMask
	if ea&(size-1) == 0 && auth.Authorizes(ea, size, cap.PermLoad) &&
		e.vpn == vpn && e.gen == r.gen && e.as == r.as && e.prot&vm.ProtRead != 0 && e.data != nil {
		if r.l1d.Hit(e.base+off, size, false) {
			r.hits++
		} else {
			c.Stats.Cycles += c.Hier.Data(e.base+off, size, false)
		}
		// An aligned access no wider than a granule never leaves the page.
		d := e.data[off:]
		switch size {
		case 1:
			return uint64(d[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(d)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(d)), nil
		case 8:
			return binary.LittleEndian.Uint64(d), nil
		}
		tag := e.tags[off>>mem.GranShift] && auth.HasPerm(cap.PermLoadCap)
		if dst != nil {
			cap.DecodeInto(dst, d[:size], tag)
		}
		return 0, nil
	}
	if size > 8 {
		return 0, c.loadCapSlow(auth, ea, dst)
	}
	return c.loadMiss(auth, ea, size)
}

// capDst returns the destination of a capability load into register rd:
// the register, or nil for c0, which stays NULL.
func (c *CPU) capDst(rd uint8) *cap.Capability {
	if rd == 0 {
		return nil
	}
	return &c.C[rd]
}

// loadMiss is a scalar load's general sequence: alignment, the full
// capability check, translation, the cache walk and the memory read.
func (c *CPU) loadMiss(auth *cap.Capability, ea, size uint64) (uint64, error) {
	// Access sizes are always powers of two (1/2/4/8 scalars, cap.Bytes
	// capabilities), so the natural-alignment check is a mask — a
	// variable-divisor modulo here is a hardware divide.
	if ea&(size-1) != 0 {
		return 0, &AlignmentError{VA: ea, Size: size}
	}
	if err := auth.CheckDeref(ea, size, cap.PermLoad); err != nil {
		return 0, err
	}
	pa, pf := c.translate(ea, vm.ProtRead)
	if pf != nil {
		return 0, pf
	}
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	c.Stats.Cycles += c.Hier.Data(pa, size, false)
	return c.Mem.Load(pa, size), nil
}

// loadCapSlow is a capability load's general sequence into *dst (nil
// discards the value): alignment, the full capability check, translation,
// the cache walk and the tagged memory read. PermLoad authorizes the
// cap.Bytes; without PermLoadCap the value arrives with its tag stripped.
// Out of line, so that its buffer stays out of load's frame.
func (c *CPU) loadCapSlow(auth *cap.Capability, ea uint64, dst *cap.Capability) error {
	if ea&(cap.Bytes-1) != 0 { // the capability width is a power of two
		return &AlignmentError{VA: ea, Size: cap.Bytes}
	}
	if err := auth.CheckDeref(ea, cap.Bytes, cap.PermLoad); err != nil {
		return err
	}
	pa, pf := c.translate(ea, vm.ProtRead)
	if pf != nil {
		return pf
	}
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	c.Stats.Cycles += c.Hier.Data(pa, cap.Bytes, false)
	var buf [cap.Bytes]byte
	tag := c.Mem.LoadCap(pa, buf[:])
	if dst != nil {
		cap.DecodeInto(dst, buf[:], tag && auth.HasPerm(cap.PermLoadCap))
	}
	return nil
}

// store performs a store of size bytes at ea through auth: a scalar
// store (size 1, 2, 4 or 8) of v, or a capability store (size cap.Bytes)
// of *cv. The hit test needs the entry's write proof, so a page proven
// only for reads still takes the full Translate walk, with its
// copy-on-write resolution, on its first write. A hit marks the L1D line
// dirty at once and takes over Store's and StoreCap's contracts: a scalar
// store of at most 8 bytes never straddles a tag granule (at least 16
// bytes), so it clears exactly one tag; a capability store sets its
// granule's tag; either bumps the page generation once.
func (c *CPU) store(r *dataRun, auth *cap.Capability, ea, size, v uint64, cv *cap.Capability) error {
	need := cap.PermStore
	if size > 8 {
		need = capStoreNeed(cv)
	}
	vpn := ea >> vm.PageShift
	e := &c.tlb[vpn&(dtlbSize-1)]
	off := ea & pageOffMask
	if ea&(size-1) == 0 && auth.Authorizes(ea, size, need) &&
		e.vpn == vpn && e.gen == r.gen && e.as == r.as && e.prot&vm.ProtWrite != 0 && e.data != nil {
		if r.l1d.Hit(e.base+off, size, true) {
			r.hits++
		} else {
			c.Stats.Cycles += c.Hier.Data(e.base+off, size, true)
		}
		d := e.data[off:]
		tag := false
		switch size {
		case 1:
			d[0] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(d, uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(d, uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(d, v)
		default:
			cap.Encode(*cv, d[:size])
			tag = cv.Tag()
		}
		e.tags[off>>mem.GranShift] = tag
		*e.pgen++
		return nil
	}
	if size > 8 {
		return c.StoreCapVia(*auth, ea, *cv)
	}
	return c.storeMiss(auth, ea, size, v)
}

// storeMiss is a scalar store's general sequence (see loadMiss).
func (c *CPU) storeMiss(auth *cap.Capability, ea, size, v uint64) error {
	if ea&(size-1) != 0 { // sizes are powers of two (see loadMiss)
		return &AlignmentError{VA: ea, Size: size}
	}
	if err := auth.CheckDeref(ea, size, cap.PermStore); err != nil {
		return err
	}
	pa, pf := c.translate(ea, vm.ProtWrite)
	if pf != nil {
		return pf
	}
	c.Stats.Cycles += c.Hier.Data(pa, size, true)
	c.Mem.Store(pa, size, v)
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	return nil
}

// fill attaches a backing to e, which holds a proof for the page
// containing pa, unless it already has one. A never-written page gets
// none: it reads as zero through Load, and materializing it on a read
// would change what the lazy allocator observably allocates. Store and
// StoreCap materialize the chunk first, so filling after a store always
// attaches one. Kept out of line so the slow path it sits on does not
// grow the hot access functions' frames.
//
//go:noinline
func (c *CPU) fill(e *tlbEntry, pa uint64) {
	if e.data != nil {
		return
	}
	e.data, e.tags, e.pgen = c.Mem.Page(pa &^ pageOffMask)
}

// LoadVia performs a capability-authorized scalar load. The kernel uses
// this with user-supplied capabilities to implement copyin ("Kernel code
// dereferences user-provided capabilities when accessing user memory").
func (c *CPU) LoadVia(auth cap.Capability, ea, size uint64) (uint64, error) {
	r := c.newDataRun()
	v, err := c.load(&r, &auth, ea, size, nil)
	c.settle(&r)
	return v, err
}

// StoreVia performs a capability-authorized scalar store.
func (c *CPU) StoreVia(auth cap.Capability, ea, size, v uint64) error {
	r := c.newDataRun()
	err := c.store(&r, &auth, ea, size, v, nil)
	c.settle(&r)
	return err
}

// capStoreNeed returns the permissions storing v requires: PermStore, plus
// PermStoreCap for a tagged value, plus PermStoreLocalCap for a tagged
// non-global one.
func capStoreNeed(v *cap.Capability) cap.Perm {
	need := cap.PermStore
	if v.Tag() {
		need |= cap.PermStoreCap
		if !v.HasPerm(cap.PermGlobal) {
			need |= cap.PermStoreLocalCap
		}
	}
	return need
}

// LoadCapVia loads one capability through the data hit path, as LoadVia
// loads a scalar. PermLoad authorizes the cap.Bytes; without PermLoadCap
// the loaded value arrives with its tag stripped.
func (c *CPU) LoadCapVia(auth cap.Capability, ea uint64) (cap.Capability, error) {
	v := cap.Null()
	r := c.newDataRun()
	_, err := c.load(&r, &auth, ea, cap.Bytes, &v)
	c.settle(&r)
	return v, err
}

// StoreCapVia stores one capability. Storing a tagged value requires
// PermStoreCap; storing a tagged non-global value additionally requires
// PermStoreLocalCap.
func (c *CPU) StoreCapVia(auth cap.Capability, ea uint64, v cap.Capability) error {
	if ea&(cap.Bytes-1) != 0 { // the capability width is a power of two
		return &AlignmentError{VA: ea, Size: cap.Bytes}
	}
	if err := auth.CheckDeref(ea, cap.Bytes, capStoreNeed(&v)); err != nil {
		return err
	}
	pa, pf := c.translate(ea, vm.ProtWrite)
	if pf != nil {
		return pf
	}
	c.Stats.Cycles += c.Hier.Data(pa, cap.Bytes, true)
	var buf [cap.Bytes]byte
	cap.Encode(v, buf[:])
	c.Mem.StoreCap(pa, buf[:], v.Tag())
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	return nil
}

// Bulk byte access (kernel copyin/copyout, runtime memory/string ops)
// lives in internal/uaccess: the page-run engine validates the capability
// once per call, translates through TranslateData, and charges Hier.Data
// per run, so every kernel- and runtime-initiated access shares one
// auditable check-then-access layer.
