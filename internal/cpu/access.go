package cpu

import (
	"encoding/binary"
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
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

func opSize(op isa.Op) (size uint64, signed bool) {
	switch op {
	case isa.LB, isa.CLB:
		return 1, true
	case isa.LBU, isa.CLBU, isa.SB, isa.CSB:
		return 1, false
	case isa.LH, isa.CLH:
		return 2, true
	case isa.LHU, isa.CLHU, isa.SH, isa.CSH:
		return 2, false
	case isa.LW, isa.CLW:
		return 4, true
	case isa.LWU, isa.CLWU, isa.SW, isa.CSW:
		return 4, false
	case isa.LD, isa.CLD, isa.SD, isa.CSD:
		return 8, false
	}
	panic(fmt.Sprintf("cpu: not a scalar memory op: %v", op))
}

func (c *CPU) loadInt(in isa.Inst, auth cap.Capability, ea uint64) (uint64, *Trap) {
	size, signed := opSize(in.Op)
	v, err := c.LoadVia(auth, ea, size)
	if err != nil {
		return 0, c.accessTrap(in, err)
	}
	c.Stats.Loads++
	if signed {
		switch size {
		case 1:
			v = uint64(int64(int8(v)))
		case 2:
			v = uint64(int64(int16(v)))
		case 4:
			v = uint64(int64(int32(v)))
		}
	}
	return v, nil
}

func (c *CPU) storeInt(in isa.Inst, auth cap.Capability, ea uint64, v uint64) *Trap {
	size, _ := opSize(in.Op)
	if err := c.StoreVia(auth, ea, size, v); err != nil {
		return c.accessTrap(in, err)
	}
	c.Stats.Stores++
	return nil
}

// LoadVia performs a capability-authorized scalar load. The kernel uses
// this with user-supplied capabilities to implement copyin ("Kernel code
// dereferences user-provided capabilities when accessing user memory").
func (c *CPU) LoadVia(auth cap.Capability, ea, size uint64) (uint64, error) {
	return c.loadViaP(&auth, ea, size)
}

// loadViaP is LoadVia behind a pointer: the threaded engine authorizes
// straight against the register file, so the hot path never copies the
// capability (the checks are value-identical; only the error path, which
// embeds the capability in the fault, reads it in full).
func (c *CPU) loadViaP(auth *cap.Capability, ea, size uint64) (uint64, error) {
	// Access sizes are always powers of two (1/2/4/8 scalars, 16/32
	// capability widths), so the natural-alignment check is a mask — a
	// variable-divisor modulo here is a hardware divide on the hottest
	// path in the simulator.
	if ea&(size-1) != 0 {
		return 0, &AlignmentError{VA: ea, Size: size}
	}
	if !auth.Authorizes(ea, size, cap.PermLoad) {
		return 0, auth.CheckDeref(ea, size, cap.PermLoad)
	}
	// Micro-TLB probe inlined from translate: this is the hottest
	// translation site in the simulator, and the call (with its two return
	// values) is measurable against a four-compare hit test.
	vpn := ea >> vm.PageShift
	e := &c.tlb[vpn&(dtlbSize-1)]
	var pa uint64
	if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn && e.prot&vm.ProtRead != 0 {
		off := ea & pageOffMask
		pa = e.base + off
		if e.data != nil {
			// Backed hit: serve the load from the entry's page slice. An
			// aligned power-of-two access of ≤ 8 bytes never leaves the
			// page. The inline-able front-latch probe comes first; only a
			// latch miss pays the Data call.
			if lat, ok := c.Hier.L1D.DataHit(pa, size, false); ok {
				c.Stats.Cycles += lat
			} else {
				c.Stats.Cycles += c.Hier.Data(pa, size, false)
			}
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
			return c.Mem.Load(pa, size), nil // other sizes panic there
		}
	} else {
		var pf *vm.PageFault
		pa, pf = c.translate(ea, vm.ProtRead)
		if pf != nil {
			return 0, pf
		}
	}
	c.fill(e, pa)
	c.Stats.Cycles += c.Hier.Data(pa, size, false)
	return c.Mem.Load(pa, size), nil
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

// StoreVia performs a capability-authorized scalar store.
func (c *CPU) StoreVia(auth cap.Capability, ea, size, v uint64) error {
	return c.storeViaP(&auth, ea, size, v)
}

// storeViaP is StoreVia behind a pointer (see loadViaP).
func (c *CPU) storeViaP(auth *cap.Capability, ea, size, v uint64) error {
	if ea&(size-1) != 0 { // sizes are powers of two (see loadViaP)
		return &AlignmentError{VA: ea, Size: size}
	}
	if !auth.Authorizes(ea, size, cap.PermStore) {
		return auth.CheckDeref(ea, size, cap.PermStore)
	}
	// Micro-TLB probe inlined from translate (see loadViaP).
	vpn := ea >> vm.PageShift
	e := &c.tlb[vpn&(dtlbSize-1)]
	var pa uint64
	if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn && e.prot&vm.ProtWrite != 0 {
		off := ea & pageOffMask
		pa = e.base + off
		if e.data != nil {
			// Backed hit: write the page slice directly, taking
			// over Store's aligned single-granule contract — an aligned
			// store of ≤ 8 bytes never straddles a ≥ 16-byte tag granule,
			// so exactly one tag is cleared and one page generation bumped.
			if lat, ok := c.Hier.L1D.DataHit(pa, size, true); ok {
				c.Stats.Cycles += lat
			} else {
				c.Stats.Cycles += c.Hier.Data(pa, size, true)
			}
			d := e.data[off:]
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
				c.Mem.Store(pa, size, v) // other sizes panic there
				return nil
			}
			e.tags[off>>c.Mem.GranShift()] = false
			*e.pgen++
			return nil
		}
	} else {
		var pf *vm.PageFault
		pa, pf = c.translate(ea, vm.ProtWrite)
		if pf != nil {
			return pf
		}
	}
	c.Stats.Cycles += c.Hier.Data(pa, size, true)
	c.Mem.Store(pa, size, v)
	c.fill(e, pa)
	return nil
}

// loadCapP is LoadCapVia behind a pointer, decoding the loaded capability
// in place into register rd (c0 stays NULL). A load whose checks pass and
// whose page has a backing is served from the micro-TLB entry;
// anything else — a fault, a TLB miss, an unbacked page — runs
// LoadCapVia's exact sequence from the start. The fast path changes no
// state before it commits, so the fallback sees the machine untouched.
func (c *CPU) loadCapP(auth *cap.Capability, ea uint64, rd uint8) error {
	bytes := c.Fmt.Bytes
	if ea&(bytes-1) == 0 && auth.Authorizes(ea, bytes, cap.PermLoad) {
		vpn := ea >> vm.PageShift
		e := &c.tlb[vpn&(dtlbSize-1)]
		if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn && e.prot&vm.ProtRead != 0 && e.data != nil {
			off := ea & pageOffMask
			pa := e.base + off
			if lat, ok := c.Hier.L1D.DataHit(pa, bytes, false); ok {
				c.Stats.Cycles += lat
			} else {
				c.Stats.Cycles += c.Hier.Data(pa, bytes, false)
			}
			tag := e.tags[off>>c.Mem.GranShift()] && auth.HasPerm(cap.PermLoadCap)
			if rd != 0 {
				c.Fmt.DecodeInto(&c.C[rd], e.data[off:off+bytes], tag)
			}
			return nil
		}
	}
	v, err := c.LoadCapVia(*auth, ea)
	if err != nil {
		return err
	}
	c.setC(rd, v)
	return nil
}

// storeCapP is StoreCapVia behind pointers, served from the micro-TLB
// backing when every check passes (see loadCapP); anything else
// runs StoreCapVia's exact sequence.
func (c *CPU) storeCapP(auth *cap.Capability, ea uint64, v *cap.Capability) error {
	bytes := c.Fmt.Bytes
	if ea&(bytes-1) == 0 && auth.Authorizes(ea, bytes, capStoreNeed(v)) {
		vpn := ea >> vm.PageShift
		e := &c.tlb[vpn&(dtlbSize-1)]
		if e.as == c.AS && e.gen == c.AS.Gen && e.vpn == vpn && e.prot&vm.ProtWrite != 0 && e.data != nil {
			off := ea & pageOffMask
			pa := e.base + off
			if lat, ok := c.Hier.L1D.DataHit(pa, bytes, true); ok {
				c.Stats.Cycles += lat
			} else {
				c.Stats.Cycles += c.Hier.Data(pa, bytes, true)
			}
			// StoreCap's contract: the bytes, the granule's tag, and one
			// page-generation bump (a granule never straddles a page).
			c.Fmt.Encode(*v, e.data[off:off+bytes])
			e.tags[off>>c.Mem.GranShift()] = v.Tag()
			*e.pgen++
			return nil
		}
	}
	return c.StoreCapVia(*auth, ea, *v)
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

// LoadCapVia loads one capability. PermLoad authorizes the bytes; without
// PermLoadCap the loaded value arrives with its tag stripped.
func (c *CPU) LoadCapVia(auth cap.Capability, ea uint64) (cap.Capability, error) {
	bytes := c.Fmt.Bytes
	if ea&(bytes-1) != 0 { // capability widths are powers of two
		return cap.Null(), &AlignmentError{VA: ea, Size: bytes}
	}
	if err := auth.CheckDeref(ea, bytes, cap.PermLoad); err != nil {
		return cap.Null(), err
	}
	pa, pf := c.translate(ea, vm.ProtRead)
	if pf != nil {
		return cap.Null(), pf
	}
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	c.Stats.Cycles += c.Hier.Data(pa, bytes, false)
	var arr [32]byte // large enough for both capability formats
	buf := arr[:bytes]
	tag := c.Mem.LoadCap(pa, buf)
	if tag && !auth.HasPerm(cap.PermLoadCap) {
		tag = false
	}
	return c.Fmt.Decode(buf, tag), nil
}

// StoreCapVia stores one capability. Storing a tagged value requires
// PermStoreCap; storing a tagged non-global value additionally requires
// PermStoreLocalCap.
func (c *CPU) StoreCapVia(auth cap.Capability, ea uint64, v cap.Capability) error {
	bytes := c.Fmt.Bytes
	if ea&(bytes-1) != 0 { // capability widths are powers of two
		return &AlignmentError{VA: ea, Size: bytes}
	}
	if err := auth.CheckDeref(ea, bytes, capStoreNeed(&v)); err != nil {
		return err
	}
	pa, pf := c.translate(ea, vm.ProtWrite)
	if pf != nil {
		return pf
	}
	c.Stats.Cycles += c.Hier.Data(pa, bytes, true)
	var arr [32]byte // large enough for both capability formats
	buf := arr[:bytes]
	c.Fmt.Encode(v, buf)
	c.Mem.StoreCap(pa, buf, v.Tag())
	c.fill(&c.tlb[(ea>>vm.PageShift)&(dtlbSize-1)], pa)
	return nil
}

// Bulk byte access (kernel copyin/copyout, runtime memory/string ops)
// lives in internal/uaccess: the page-run engine validates the capability
// once per call, translates through TranslateData, and charges Hier.Data
// per run, so every kernel- and runtime-initiated access shares one
// auditable check-then-access layer.
